(* table2: the paper's Table-2 sweep, fully detailed, with every trace
   memory-mapped from a trace store built in set-up. *)

open Common
module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Flat_trace = Mcsim_isa.Flat_trace
module Trace_store = Mcsim.Trace_store
module Table2 = Mcsim.Table2
module Json = Mcsim_obs.Json
module P = Mcsim_serve.Protocol

let max_instrs = 120_000
let schedulers = Mcsim.Experiment.default_schedulers

let key ~clusters ~seed ~max_instrs b sched =
  { Trace_store.benchmark = Spec92.name b;
    scheduler = Mcsim.Experiment.scheduler_ident_n ~clusters sched;
    seed;
    max_instrs }

(* "none_2cl": a binary's scheduler and target cluster count. *)
let compile_tag ~clusters sched =
  Printf.sprintf "%s_%dcl" (Pipeline.scheduler_name sched) clusters

(* Build one benchmark's traces into [store] exactly as the sweep would
   walk them on a miss: program, profile, compile per scheduler, walk,
   save. Shared with steer-sampled, which compiles per cluster count.
   Returns the instructions walked. *)
let build_traces store ~seed ~max_instrs ~cluster_counts b =
  let item = Spec92.name b in
  let prog = Span.with_ ~layer:"workload" ~name:"gen" ~item (fun () -> Spec92.program b) in
  let profile =
    Span.with_ ~layer:"trace" ~name:"profile" ~item (fun () -> Walker.profile ~seed prog)
  in
  List.fold_left
    (fun acc clusters ->
      List.fold_left
        (fun walked (_, sched) ->
          let compiled =
            Span.with_ ~layer:"compiler" ~name:("compile." ^ compile_tag ~clusters sched) ~item (fun () ->
                Pipeline.compile ~clusters ~profile ~scheduler:sched prog)
          in
          let trace =
            Span.with_ ~layer:"trace" ~name:"walk" ~item (fun () ->
                Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach)
          in
          Span.with_ ~layer:"trace_store" ~name:"save" ~item (fun () ->
              Trace_store.save store (key ~clusters ~seed ~max_instrs b sched) trace);
          walked + Flat_trace.length trace)
        acc schedulers)
    0 cluster_counts

(* Set up [reps] times, each into a fresh store, keeping the last;
   returns it with each set-up's CPU seconds. *)
let setup_stores ~work ~reps ~seed ~max_instrs ~cluster_counts =
  let dirs = List.init reps (fun k -> Filename.concat work (Printf.sprintf "traces-%d" k)) in
  let times =
    List.mapi
      (fun k dir ->
        Gc.full_major ();
        let (), dt =
          cpu_timed (fun () ->
              let store = Trace_store.open_ ~dir:(fresh_dir dir) in
              List.iter
                (fun b -> ignore (build_traces store ~seed ~max_instrs ~cluster_counts b))
                Spec92.all)
        in
        if k < reps - 1 then rm_rf dir;
        dt)
      dirs
  in
  Gc.full_major ();
  (List.nth dirs (reps - 1), times)

(* Every key the timed phase will look up must be in the store. *)
let check_store dir ~seed ~max_instrs ~cluster_counts =
  let store = Trace_store.open_ ~dir in
  List.concat_map
    (fun b ->
      List.concat_map
        (fun clusters ->
          List.map
            (fun (_, sched) ->
              match Trace_store.find store (key ~clusters ~seed ~max_instrs b sched) with
              | Some t -> Flat_trace.length t
              | None ->
                check false (Printf.sprintf "trace store misses %s" (Spec92.name b));
                0)
            schedulers)
        cluster_counts)
    Spec92.all

(* Mean |measured - published| over the 12 cells of [Table2.paper], in
   percentage points: the reproduction's distance from the paper. *)
let paper_err_pp rows =
  let errs =
    List.concat_map
      (fun (name, p_none, p_local) ->
        match List.find_opt (fun r -> r.Table2.benchmark = name) rows with
        | Some r -> [ Float.abs (r.Table2.none_pct -. p_none); Float.abs (r.Table2.local_pct -. p_local) ]
        | None -> [])
      Table2.paper
  in
  check (List.length errs = 12) "every Table-2 cell has a row";
  mean errs

let sweep ~seed ~dir () = Table2.run_report ~jobs:1 ~max_instrs ~seed ~trace_cache:dir ()

(* The walker seed [Table2.run] defaults to: the reproduction's own
   inputs, on which the paper's qualitative claims are checked. At some
   other walker seeds a claim does not hold (see README.md); that is a
   property of those inputs, not a wrong output, so it is reported on
   stderr and not counted against the run. *)
let reproduction_seed = 1

let check_shape ~seed rows =
  let claims_rows =
    if seed = reproduction_seed then rows
    else begin
      let r = Table2.run_report ~jobs:1 ~max_instrs ~seed:reproduction_seed () in
      List.iter
        (fun (b, msg) -> check false (Printf.sprintf "table2 row %s failed: %s" b msg))
        r.Table2.failed;
      List.iter
        (fun (ok, claim) ->
          if not ok then
            Printf.eprintf "table2: at walker seed %d this Table-2 shape claim does not hold: %s\n%!"
              seed claim)
        (Table2.shape_holds rows);
      r.Table2.rows
    end
  in
  List.iter
    (fun (ok, claim) ->
      check ok (Printf.sprintf "Table-2 shape claim at walker seed %d: %s" reproduction_seed claim))
    (Table2.shape_holds claims_rows)

(* One stderr line on the set-ups and the timed phase's repeats. *)
let report_phase workload ~setup_cpu ~repeats ~since =
  let times f = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (f r)) repeats) in
  Printf.eprintf "%s: set-ups %s CPU s; sweeps %s s wall, %s CPU s; host steal %.1f%%\n%!"
    workload
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_cpu))
    (times wall3) (times cpu3)
    (100.0 *. steal_share_since since)

(* The traced run's set-up: the store built once more into a scratch
   directory, every call a span of phase "setup". Returns its wall
   seconds and the instructions it walked. *)
let traced_setup ~work ~seed ~max_instrs ~cluster_counts =
  Span.enabled := true;
  Span.phase := "setup";
  let dir = Filename.concat work "traces-traced" in
  let walked, wall =
    timed (fun () ->
        let store = Trace_store.open_ ~dir:(fresh_dir dir) in
        List.fold_left
          (fun acc b -> acc + build_traces store ~seed ~max_instrs ~cluster_counts b)
          0 Spec92.all)
  in
  rm_rf dir;
  Span.phase := "timed";
  (wall, walked)

(* ------------------------------------------------------------------ *)
(* The traced flow: Experiment's per-benchmark chain, call by call      *)
(* ------------------------------------------------------------------ *)

let traced_row store ~seed b =
  let item = Spec92.name b in
  let prog = Span.with_ ~layer:"workload" ~name:"gen" ~item (fun () -> Spec92.program b) in
  let profile =
    Span.with_ ~layer:"trace" ~name:"profile" ~item (fun () -> Walker.profile ~seed prog)
  in
  let single_cfg = Machine.single_cluster () and dual_cfg = Machine.dual_cluster () in
  let compile sched =
    Span.with_ ~layer:"compiler" ~name:("compile." ^ compile_tag ~clusters:2 sched) ~item (fun () ->
        Pipeline.compile ~clusters:2 ~profile ~scheduler:sched prog)
  in
  let load compiled sched =
    Span.with_ ~layer:"trace_store" ~name:"load" ~item (fun () ->
        Trace_store.load_or_build store (key ~clusters:2 ~seed ~max_instrs b sched) (fun () ->
            Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach))
  in
  let run name cfg trace =
    Span.with_ ~layer:"cluster" ~name ~item (fun () -> Machine.run_flat cfg trace)
  in
  let native = compile Pipeline.Sched_none in
  let ntrace, nhit = load native Pipeline.Sched_none in
  let single = run "single" single_cfg ntrace in
  let none = run "dual" dual_cfg ntrace in
  let local = compile Pipeline.default_local in
  let ltrace, lhit = load local Pipeline.default_local in
  let localr = run "dual" dual_cfg ltrace in
  let speedup (d : Machine.result) =
    Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
      ~dual_cycles:d.Machine.cycles
  in
  let row =
    { Table2.benchmark = item;
      none_pct = speedup none;
      local_pct = speedup localr;
      single_cycles = single.Machine.cycles;
      none_cycles = none.Machine.cycles;
      local_cycles = localr.Machine.cycles;
      none_replays = none.Machine.replays;
      local_replays = localr.Machine.replays }
  in
  let runs = [ (single_cfg, ntrace, single); (dual_cfg, ntrace, none); (dual_cfg, ltrace, localr) ] in
  (row, runs, [ nhit; lhit ])

(* Each row as the result store files it and the serve daemon answers a
   one-benchmark table2 sweep. *)
let row_results ~seed rows =
  List.map2
    (fun b row ->
      let manifest, key = Table2.row_store_unit ~max_instrs ~seed b in
      let json = Table2.row_json row in
      { Layers.sweep =
          P.Table2
            { benchmarks = [ b ]; max_instrs; seed; engine = `Wakeup; sampling = None;
              four_way = false; clusters = None;
              topology = Mcsim_cluster.Interconnect.Point_to_point;
              steering = Mcsim_cluster.Steering.Static };
        encode = (fun () -> Json.to_string ~minify:true (Table2.row_json row));
        decode =
          (fun s ->
            match Json.of_string s with
            | Ok j -> ignore (Option.get (Table2.row_of_json j))
            | Error e -> failwith e);
        units = [ (manifest, key, [ ("row", json) ]) ];
        answer = Json.Obj [ ("rows", Json.List [ json ]) ] })
    Spec92.all rows

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

let run ~work ~seed ~seconds ~traced =
  let dir, setup_cpu =
    setup_stores ~work ~reps:setup_reps ~seed ~max_instrs ~cluster_counts:[ 2 ]
  in
  (* Per benchmark: native trace (none, local) then local trace; the
     sweep reports the native trace twice (single and dual machines). *)
  let instrs_per_sweep =
    let rec go = function
      | native :: local :: tl -> (2 * native) + local + go tl
      | _ -> 0
    in
    float_of_int (go (check_store dir ~seed ~max_instrs ~cluster_counts:[ 2 ]))
  in
  let since = cpu_snapshot () in
  let sweeps = repeat_for ~seconds (sweep ~seed ~dir) in
  report_phase "table2" ~setup_cpu ~repeats:sweeps ~since;
  let reports = List.map fst3 sweeps in
  let first = List.hd reports in
  let rows = first.Table2.rows in
  List.iter
    (fun (b, msg) -> check false (Printf.sprintf "table2 row %s failed: %s" b msg))
    first.Table2.failed;
  check (List.length rows = List.length Spec92.all) "table2 reports a row per benchmark";
  let failed =
    List.fold_left
      (fun acc r ->
        acc + List.length r.Table2.failed
        + if r == first || r.Table2.rows = rows then 0 else List.length Spec92.all)
      0 reports
  in
  check (failed = 0) "every sweep reproduces the first sweep's rows";
  let attempted = List.length reports * List.length Spec92.all in
  let cpu = List.fold_left (fun acc r -> acc +. cpu3 r) 0.0 sweeps in
  Printf.eprintf "table2: %.4f Minstr/s per CPU second; paper_err_pp %.4f\n%!"
    (instrs_per_sweep *. float_of_int (List.length sweeps) /. cpu /. 1e6)
    (paper_err_pp rows);
  let rss = peak_rss_mib (Unix.getpid ()) in
  check_shape ~seed rows;
  let metrics =
    if not traced then
      end_to_end ~ops:(List.length sweeps) ~cpu ~op_p50:(median (List.map cpu3 sweeps))
        ~setups:setup_cpu ~rss
    else begin
      let setup_wall, walked = traced_setup ~work ~seed ~max_instrs ~cluster_counts:[ 2 ] in
      let store = Trace_store.open_ ~dir in
      let iters =
        repeat_for ~seconds (fun () -> List.map (traced_row store ~seed) Spec92.all)
      in
      List.iter
        (fun it ->
          check
            (List.map (fun (row, _, _) -> row) (fst3 it) = rows)
            "the traced flow reproduces the untraced Table-2 rows")
        iters;
      let flow = fst3 (List.hd iters) in
      let runs = List.concat_map (fun (_, runs, _) -> runs) flow in
      let length (_, t, _) = Flat_trace.length t in
      let instrs = float_of_int (List.fold_left (fun acc r -> acc + length r) 0 runs) in
      let prof = Machine.profile_counters () in
      List.iter (fun (cfg, t, _) -> ignore (Machine.run_flat ~profile:prof cfg t)) runs;
      let niters = List.length iters in
      Layers.metrics ~work
        { Layers.empty with
          wall = List.fold_left (fun acc it -> acc +. wall3 it) 0.0 iters;
          setup_wall;
          overhead = (median (List.map cpu3 iters) /. median (List.map cpu3 sweeps)) -. 1.0;
          walked = float_of_int walked;
          lookups = List.concat_map (fun it -> List.concat_map (fun (_, _, h) -> h) (fst3 it)) iters;
          simulated = instrs *. float_of_int niters;
          runs = List.map (fun (_, _, r) -> (r, r.Machine.retired, r.Machine.cycles)) runs;
          profile = Some (prof, instrs);
          detailed = int_of_float instrs;
          results = row_results ~seed rows }
    end
  in
  { correct = !problems = []; attempted; failed; metrics }
