module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine

type row = {
  benchmark : string;
  none_pct : float;
  local_pct : float;
  single_cycles : int;
  none_cycles : int;
  local_cycles : int;
  none_replays : int;
  local_replays : int;
}

let paper =
  [ ("compress", -14.0, 6.0); ("doduc", -21.0, -15.0); ("gcc1", -15.0, -10.0);
    ("ora", -5.0, -22.0); ("su2cor", -36.0, -25.0); ("tomcatv", -41.0, -19.0) ]

type report = {
  rows : row list;  (** in benchmark order, failed benchmarks omitted *)
  failed : (string * string) list;  (** (benchmark, one-line reason) *)
}

let row_of_comparison b (c : Experiment.comparison) =
  let find name =
    match List.find_opt (fun r -> r.Experiment.scheduler = name) c.Experiment.runs with
    | Some r -> r
    | None -> failwith "Table2.run: missing scheduler run"
  in
  let none = find "none" and local = find "local" in
  { benchmark = Spec92.name b;
    none_pct = none.Experiment.speedup_pct;
    local_pct = local.Experiment.speedup_pct;
    single_cycles = c.Experiment.single.Machine.cycles;
    none_cycles = none.Experiment.dual.Machine.cycles;
    local_cycles = local.Experiment.dual.Machine.cycles;
    none_replays = none.Experiment.dual.Machine.replays;
    local_replays = local.Experiment.dual.Machine.replays }

(* ------------------------------------------------------------------ *)
(* Row (de)serialization and the global result cache                    *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json

let row_json r =
  Json.Obj
    [ ("benchmark", Json.String r.benchmark);
      ("none_pct", Json.Float r.none_pct);
      ("local_pct", Json.Float r.local_pct);
      ("single_cycles", Json.Int r.single_cycles);
      ("none_cycles", Json.Int r.none_cycles);
      ("local_cycles", Json.Int r.local_cycles);
      ("none_replays", Json.Int r.none_replays);
      ("local_replays", Json.Int r.local_replays) ]

let ( let* ) = Option.bind

let row_of_json j =
  let int k = Option.bind (Json.member k j) Json.get_int in
  let* benchmark = Option.bind (Json.member "benchmark" j) Json.get_string in
  let* none_pct = Option.bind (Json.member "none_pct" j) Json.get_float in
  let* local_pct = Option.bind (Json.member "local_pct" j) Json.get_float in
  let* single_cycles = int "single_cycles" in
  let* none_cycles = int "none_cycles" in
  let* local_cycles = int "local_cycles" in
  let* none_replays = int "none_replays" in
  let* local_replays = int "local_replays" in
  Some
    { benchmark; none_pct; local_pct; single_cycles; none_cycles; local_cycles;
      none_replays; local_replays }

(* The global-store identity of one Table-2 row. The manifest pins the
   dual config (digest), seed, engine, sampling policy, trace budget and
   benchmark; the key carries what the manifest cannot: the single
   config and the sampling policy's own seed. The serve daemon and the
   batch [--result-cache] path both address rows through this, which is
   what lets them share one cache. *)
let row_store_unit ?engine ?sampling ?single_config ?dual_config ~max_instrs ~seed b =
  let single_config =
    match single_config with Some c -> c | None -> Machine.single_cluster ()
  in
  let dual_config =
    match dual_config with Some c -> c | None -> Machine.dual_cluster ()
  in
  let manifest =
    Mcsim_obs.Manifest.make ?engine ~seed ?sampling ~benchmark:(Spec92.name b)
      ~trace_instrs:max_instrs dual_config
  in
  let key =
    Printf.sprintf "table2/row:single=%s:sampling_seed=%s"
      (Digest.to_hex (Digest.string (Mcsim_obs.Manifest.config_description single_config)))
      (match sampling with
      | Some p -> string_of_int p.Mcsim_sampling.Sampling.seed
      | None -> "-")
  in
  (manifest, key)

let find_cached_row store ~manifest ~key =
  let* d = Result_store.find store ~manifest ~key in
  let* rj = Json.member "row" d in
  row_of_json rj

let record_row store ~manifest ~key row =
  Result_store.record store ~manifest ~key [ ("row", row_json row) ]

(* Look the benchmark list up in the global result store, run the
   misses through [run_missing] and record what it produces. With a
   [checkpoint] the lookup is skipped — the checkpoint identity pins the
   benchmark list, so a resume whose cached set grew in the meantime
   would otherwise be refused as a different sweep; the checkpoint
   already makes reruns cheap, and fresh rows still land in the store. *)
let with_result_cache ~result_cache ~checkpoint
    ~(unit_of : Spec92.benchmark -> Mcsim_obs.Manifest.t * string)
    (run_missing : Spec92.benchmark list -> (row, string) result list) benchmarks =
  match result_cache with
  | None -> run_missing benchmarks
  | Some dir ->
    let store = Result_store.open_ ~dir in
    let find b =
      if checkpoint <> None then None
      else
        let manifest, key = unit_of b in
        Option.map Result.ok (find_cached_row store ~manifest ~key)
    in
    let record b r =
      Result.iter
        (fun row ->
          let manifest, key = unit_of b in
          record_row store ~manifest ~key row)
        r;
      r
    in
    Mcsim_util.Pool.fill ~find
      ~run:(fun bs -> List.map2 record bs (run_missing bs))
      benchmarks

let run ?jobs ?(max_instrs = 120_000) ?(seed = 1) ?(benchmarks = Spec92.all) ?engine
    ?sampling ?single_config ?dual_config ?retries ?backoff ?inject_fault ?checkpoint
    ?trace_cache ?result_cache () =
  let run_missing bs =
    Experiment.run_many ?jobs ~max_instrs ~seed ?engine ?sampling ?single_config
      ?dual_config ?retries ?backoff ?inject_fault ?checkpoint ?trace_cache
      (List.map Spec92.program bs)
    |> List.map2 (fun b c -> Ok (row_of_comparison b c)) bs
  in
  let unit_of =
    row_store_unit ?engine ?sampling ?single_config ?dual_config ~max_instrs ~seed
  in
  with_result_cache ~result_cache ~checkpoint ~unit_of run_missing benchmarks
  |> List.map (function Ok row -> row | Error _ -> assert false)

let run_report ?jobs ?(max_instrs = 120_000) ?(seed = 1) ?(benchmarks = Spec92.all)
    ?engine ?sampling ?single_config ?dual_config ?retries ?backoff ?inject_fault
    ?checkpoint ?trace_cache ?result_cache () =
  let run_missing bs =
    Experiment.run_many_status ?jobs ~max_instrs ~seed ?engine ?sampling ?single_config
      ?dual_config ?retries ?backoff ?inject_fault ?checkpoint ?trace_cache
      (List.map Spec92.program bs)
    |> List.map2 (fun b st -> Result.map (row_of_comparison b) st) bs
  in
  let unit_of =
    row_store_unit ?engine ?sampling ?single_config ?dual_config ~max_instrs ~seed
  in
  with_result_cache ~result_cache ~checkpoint ~unit_of run_missing benchmarks
  |> List.fold_left2
       (fun report b st ->
         match st with
         | Ok row -> { report with rows = report.rows @ [ row ] }
         | Error msg -> { report with failed = report.failed @ [ (Spec92.name b, msg) ] })
       { rows = []; failed = [] } benchmarks

let pct v = Printf.sprintf "%+.1f" v

let render rows =
  let header =
    [ "benchmark"; "none (measured)"; "none (paper)"; "local (measured)"; "local (paper)" ]
  in
  let body =
    List.map
      (fun r ->
        let p_none, p_local =
          match List.find_opt (fun (n, _, _) -> n = r.benchmark) paper with
          | Some (_, a, b) -> (pct a, pct b)
          | None -> ("-", "-")
        in
        [ r.benchmark; pct r.none_pct; p_none; pct r.local_pct; p_local ])
      rows
  in
  Mcsim_util.Text_table.render
    ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Right; Right |]
    (header :: body)
  ^ "positive = dual-cluster machine needs fewer cycles than the single-cluster machine\n"

let shape_holds rows =
  let get name = List.find_opt (fun r -> r.benchmark = name) rows in
  let non_ora = List.filter (fun r -> r.benchmark <> "ora") rows in
  let claims = ref [] in
  let claim ok desc = claims := (ok, desc) :: !claims in
  claim
    (List.for_all (fun r -> r.local_pct > r.none_pct) non_ora)
    "the local scheduler improves every benchmark except ora";
  (match get "ora" with
  | Some ora -> claim (ora.local_pct < ora.none_pct) "the local scheduler degrades ora"
  | None -> ());
  claim
    (List.for_all (fun r -> r.none_pct < 0.0) rows)
    "every native binary is slower on the dual-cluster machine";
  claim
    (List.for_all (fun r -> r.local_pct > -50.0) rows)
    "worst-case local-scheduler slowdown is within 2x of the paper's 25%";
  (match (get "su2cor", get "tomcatv", get "ora") with
  | Some su, Some tv, Some ora ->
    claim
      (min su.none_pct tv.none_pct < ora.none_pct)
      "the vector codes (su2cor, tomcatv) suffer more than ora under 'none'"
  | _, _, _ -> ());
  List.rev !claims
