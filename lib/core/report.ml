let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let line cells = String.concat "," (List.map csv_escape cells) ^ "\n"

let paper_of benchmark =
  match List.find_opt (fun (n, _, _) -> n = benchmark) Table2.paper with
  | Some (_, a, b) -> (Printf.sprintf "%.1f" a, Printf.sprintf "%.1f" b)
  | None -> ("", "")

let table2_csv rows =
  let header =
    line
      [ "benchmark"; "none_pct"; "none_pct_paper"; "local_pct"; "local_pct_paper";
        "single_cycles"; "none_cycles"; "local_cycles"; "none_replays"; "local_replays" ]
  in
  header
  ^ String.concat ""
      (List.map
         (fun (r : Table2.row) ->
           let p_none, p_local = paper_of r.Table2.benchmark in
           line
             [ r.Table2.benchmark;
               Printf.sprintf "%.2f" r.Table2.none_pct;
               p_none;
               Printf.sprintf "%.2f" r.Table2.local_pct;
               p_local;
               string_of_int r.Table2.single_cycles;
               string_of_int r.Table2.none_cycles;
               string_of_int r.Table2.local_cycles;
               string_of_int r.Table2.none_replays;
               string_of_int r.Table2.local_replays ])
         rows)

let table2_markdown rows =
  let header =
    "| benchmark | none (measured) | none (paper) | local (measured) | local (paper) |\n\
     |---|---|---|---|---|\n"
  in
  header
  ^ String.concat ""
      (List.map
         (fun (r : Table2.row) ->
           let p_none, p_local = paper_of r.Table2.benchmark in
           Printf.sprintf "| %s | %+.1f | %s | %+.1f | %s |\n" r.Table2.benchmark
             r.Table2.none_pct p_none r.Table2.local_pct p_local)
         rows)

let table2_json rows =
  let module J = Mcsim_obs.Json in
  let paper_num v = J.Float v in
  J.List
    (List.map
       (fun (r : Table2.row) ->
         let p_none, p_local =
           match List.find_opt (fun (n, _, _) -> n = r.Table2.benchmark) Table2.paper with
           | Some (_, a, b) -> (paper_num a, paper_num b)
           | None -> (J.Null, J.Null)
         in
         J.Obj
           [ ("benchmark", J.String r.Table2.benchmark);
             ("none_pct", J.Float r.Table2.none_pct);
             ("none_pct_paper", p_none);
             ("local_pct", J.Float r.Table2.local_pct);
             ("local_pct_paper", p_local);
             ("single_cycles", J.Int r.Table2.single_cycles);
             ("none_cycles", J.Int r.Table2.none_cycles);
             ("local_cycles", J.Int r.Table2.local_cycles);
             ("none_replays", J.Int r.Table2.none_replays);
             ("local_replays", J.Int r.Table2.local_replays) ])
       rows)

let ablation_csv (s : Ablation.sweep) =
  line [ "benchmark"; "sweep"; "point"; "cycles"; "speedup_pct"; "replays"; "dual_distributed" ]
  ^ String.concat ""
      (List.map
         (fun (p : Ablation.point) ->
           line
             [ s.Ablation.benchmark; s.Ablation.sweep_name; p.Ablation.label;
               string_of_int p.Ablation.dual_cycles;
               Printf.sprintf "%.2f" p.Ablation.speedup_pct;
               string_of_int p.Ablation.replays;
               string_of_int p.Ablation.dual_distributed ])
         s.Ablation.points)

let sampling_csv (r : Mcsim_sampling.Sampling.t) =
  line [ "interval"; "start"; "warmup_cycles"; "detail_cycles"; "detail_instrs"; "ipc" ]
  ^ String.concat ""
      (List.map
         (fun (s : Mcsim_sampling.Sampling.interval_stat) ->
           line
             [ string_of_int s.Mcsim_sampling.Sampling.index;
               string_of_int s.Mcsim_sampling.Sampling.start;
               string_of_int s.Mcsim_sampling.Sampling.warmup_cycles;
               string_of_int s.Mcsim_sampling.Sampling.detail_cycles;
               string_of_int s.Mcsim_sampling.Sampling.detail_instrs;
               Printf.sprintf "%.4f" s.Mcsim_sampling.Sampling.ipc ])
         r.Mcsim_sampling.Sampling.intervals)
