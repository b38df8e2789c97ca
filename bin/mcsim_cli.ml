(* Command-line front end for the multicluster simulator. *)

open Cmdliner

(* One positive-int parser for every count-like flag (-n, -j, ...): a
   malformed or non-positive value is a one-line usage error naming the
   flag, never an exception backtrace. *)
let pos_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let max_instrs_arg =
  let doc = "Committed-trace length per run." in
  Arg.(value & opt (pos_int ~what:"N") 60_000 & info [ "n"; "max-instrs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for branch outcomes and address streams." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Number of domains to fan independent simulations out over (default: the \
     number of cores). Results are identical for every value."
  in
  Arg.(value
       & opt (pos_int ~what:"JOBS") (Mcsim_util.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* A sampling policy as INTERVAL:WARMUP:DETAIL; the policy's offset seed
   is taken from --seed at the point of use. *)
let sample_conv =
  let parse s =
    match Mcsim_sampling.Sampling.policy_of_string s with
    | Ok p -> Ok p
    | Error m ->
      (* cmdliner already names the option; drop the library's prefix. *)
      let m =
        match String.index_opt m ':' with
        | Some i when String.length m > i + 2 && String.sub m 0 i = "Sampling" ->
          String.sub m (i + 2) (String.length m - i - 2)
        | _ -> m
      in
      Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Mcsim_sampling.Sampling.policy_to_string p))

let sample_arg =
  let doc =
    "Sampled simulation: replace every detailed machine run with SMARTS-style \
     systematic interval sampling under policy $(docv) (instructions per sampling \
     unit : functionally-warmed detailed-warmup prefix : measured suffix, e.g. \
     25000:2000:2000). Cycle counts become extrapolations from the sampled mean CPI."
  in
  Arg.(value & opt (some sample_conv) None & info [ "sample" ] ~docv:"I:W:D" ~doc)

(* Expected library failures (cycle-limit guard, config and sampling
   validation, unreadable files, stale checkpoints) are user errors: one
   line on stderr and exit 1, never a backtrace. *)
let wrap = Mcsim.Cli_errors.wrap

module Json = Mcsim_obs.Json
module P = Mcsim_serve.Protocol
module Sweep = Mcsim_serve.Sweep

let nonneg_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s must be a non-negative integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let retries_arg =
  let doc =
    "Retry each failed simulation unit up to $(docv) more times (with a deterministic \
     doubling backoff) before declaring it permanently failed."
  in
  Arg.(value & opt (nonneg_int ~what:"RETRIES") 0 & info [ "retries" ] ~docv:"N" ~doc)

(* [~resumable] for the commands `mcsim resume` can replay. *)
let checkpoint_arg ~resumable =
  let doc =
    "Durable checkpoint directory: record every completed simulation unit under \
     $(docv) and skip units already recorded there, so an interrupted run can be \
     finished by rerunning the same command"
    ^ (if resumable then " or by $(b,mcsim resume) $(docv)" else "")
    ^ ". The directory is refused if it was written by a different configuration."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let trace_cache_arg =
  let doc =
    "Trace-store directory: cache the committed trace of every (benchmark, scheduler, \
     seed, trace length) under $(docv) in the flat binary format and memory-map it \
     back on later runs instead of regenerating it. Cached traces are byte-identical \
     to freshly generated ones, so all results are unchanged. Inspect the store with \
     $(b,mcsim trace-store) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-cache" ] ~docv:"DIR" ~doc)

let metrics_out_arg =
  let doc =
    "Also write a JSON metrics snapshot (schema_version/kind/manifest/data, see the \
     Observability section of the README) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let result_cache_arg =
  let doc =
    "Result-store directory: the content-addressed global result cache (shared with \
     the $(b,mcsim serve) daemon). Completed units found under $(docv) are decoded \
     instead of recomputed — output is byte-identical — and fresh units are recorded \
     for every later sweep. Unlike --checkpoint the store is not tied to one sweep. \
     Inspect it with $(b,mcsim result-store) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "result-cache" ] ~docv:"DIR" ~doc)

let engine_arg =
  let doc =
    "Detailed-model issue logic: $(b,wakeup) (dependence-driven, the default) or \
     $(b,scan) (the reference per-cycle queue scan). Results are identical either \
     way; the flag exists so a divergence can be bisected from the command line."
  in
  Arg.(value
       & opt (enum P.engines) `Wakeup
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let topology_conv =
  let parse s =
    match Mcsim_cluster.Interconnect.of_string s with
    | t -> Ok t
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun fmt t -> Format.pp_print_string fmt (Mcsim_cluster.Interconnect.to_string t) )

let topology_arg =
  let doc =
    "Inter-cluster interconnect: $(b,p2p) (dedicated pairwise links, the default — \
     one-cycle transfers), $(b,ring) (neighbor links only, distance is paid in \
     extra transfer cycles), or $(b,xbar) (a shared crossbar, two cycles between \
     any two distinct clusters)."
  in
  Arg.(value
       & opt topology_conv Mcsim_cluster.Interconnect.Point_to_point
       & info [ "topology" ] ~docv:"TOPO" ~doc)

let clusters_arg =
  let doc =
    "Partition the same total resources into $(docv) clusters (1, 2, 4 or 8) wired \
     as --topology, instead of the stock single/dual machine pair; overrides \
     --machine."
  in
  Arg.(value
       & opt (some (pos_int ~what:"CLUSTERS")) None
       & info [ "clusters" ] ~docv:"N" ~doc)

let steering_conv =
  let parse s =
    match Mcsim_cluster.Steering.of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun fmt p -> Format.pp_print_string fmt (Mcsim_cluster.Steering.to_string p) )

let steering_arg =
  let doc =
    "Dispatch-time steering policy: $(b,static) (follow the compile-time partition, \
     the default), $(b,modulo) (round-robin), $(b,dependence) (cluster owning the \
     producer of the first unready source), $(b,load) (least-loaded cluster), or \
     $(b,ineffectual) (predicted-dead results exiled to the last cluster). Dynamic \
     policies need a machine with at least two clusters."
  in
  Arg.(value
       & opt steering_conv Mcsim_cluster.Steering.Static
       & info [ "steering" ] ~docv:"POLICY" ~doc)

let bench_conv =
  let parse s =
    match Mcsim_workload.Spec92.of_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" s))
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Mcsim_workload.Spec92.name b))

let benchmarks_arg =
  let doc = "Benchmarks to run (default: all six)." in
  Arg.(value & opt (list bench_conv) Mcsim_workload.Spec92.all & info [ "benchmarks" ] ~doc)

let bench_pos =
  Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCHMARK")

(* Every row of a matrix, raising the first failure; an ablation sweep's
   one row. *)
let rows ~jobs m = Mcsim.Experiment.get_all (Mcsim.Experiment.run ~jobs m)
let sweep ~jobs m = List.hd (rows ~jobs m)

(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run () = print_string (Mcsim.Config.table1 ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table 1 (issue rules and latencies).")
    Term.(const run $ const ())

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a text table.")

let four_way_arg =
  Arg.(value & flag
       & info [ "four-way" ] ~doc:"Use the four-way-issue machine pair instead of eight-way.")

let machine_arg ?(doc = "Machine to run on: single or dual.") () =
  Arg.(value & opt (enum P.machines) `Dual & info [ "machine" ] ~doc)

let scheduler_arg =
  let sched =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Mcsim_compiler.Pipeline.scheduler_of_string s)),
        fun fmt s -> Format.pp_print_string fmt (Mcsim_compiler.Pipeline.scheduler_name s) )
  in
  Arg.(value & opt sched Mcsim_compiler.Pipeline.default_local
       & info [ "scheduler" ] ~doc:"none, local, round-robin, or random.")

(* One term per sweep kind, shared by the batch command and its submit
   twin. A sampling policy's offset seed is --seed. *)
let table2_sweep =
  let make max_instrs seed benchmarks four_way clusters topology steering sample engine =
    let sampling = Option.map (fun p -> { p with Mcsim_sampling.Sampling.seed }) sample in
    P.Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology; steering }
  in
  Term.(const make $ max_instrs_arg $ seed_arg $ benchmarks_arg $ four_way_arg $ clusters_arg
        $ topology_arg $ steering_arg $ sample_arg $ engine_arg)

let run_sweep =
  let make bench machine clusters topology steering scheduler max_instrs seed engine =
    P.Run { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }
  in
  Term.(const make $ bench_pos $ machine_arg () $ clusters_arg $ topology_arg $ steering_arg
        $ scheduler_arg $ max_instrs_arg $ seed_arg $ engine_arg)

let sample_sweep =
  let make bench machine clusters topology steering scheduler max_instrs seed sample engine =
    let policy = Option.value sample ~default:Mcsim_sampling.Sampling.default_policy in
    P.Sample
      { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering;
        policy = { policy with seed } }
  in
  Term.(const make $ bench_pos $ machine_arg () $ clusters_arg $ topology_arg $ steering_arg
        $ scheduler_arg $ max_instrs_arg $ seed_arg $ sample_arg $ engine_arg)

let options ~csv ~profile ~full =
  let make csv profile full metrics_out retries trace_cache result_cache =
    { Sweep.csv; profile; full; metrics_out; retries; trace_cache; result_cache }
  in
  Term.(const make $ csv $ profile $ full $ metrics_out_arg $ retries_arg $ trace_cache_arg
        $ result_cache_arg)

let write_metrics ~t_start ~kind ?result ?profile ?sampling ?extra manifest path =
  Mcsim_obs.Metrics.write_file path
    (Mcsim_obs.Metrics.snapshot
       ~manifest:{ manifest with Mcsim_obs.Manifest.created_unix = Unix.time () }
       ~kind ?result ?profile ?sampling
       ~wall_seconds:(Unix.gettimeofday () -. t_start)
       ?extra ())

(* A sweep's snapshot: its rows under [kind], with a manifest pinned to
   the machine the sweep's identity names. *)
let sweep_metrics ~t_start ~kind ~benchmarks ~max_instrs ~seed ?engine ?sampling cfg rows =
  write_metrics ~t_start ~kind ~extra:[ (kind, rows) ]
    (Mcsim_obs.Manifest.make ?engine ~seed
       ~benchmark:(String.concat "," (List.map Mcsim_workload.Spec92.name benchmarks))
       ~trace_instrs:max_instrs ?sampling cfg)

(* A Table-2 snapshot is pinned to the clustered side of the pair. *)
let table2_metrics ~t_start ~benchmarks ~max_instrs ~seed ~engine ~sampling cfg rows =
  sweep_metrics ~t_start ~kind:"table2" ~benchmarks ~max_instrs ~seed ~engine ?sampling cfg
    (Mcsim.Table2.rows_json rows)

(* A run or sample sweep is one durable unit. A checkpoint is a result
   store whose entry for the unit has the unit's own identity, so the
   unit is looked up in the checkpoint, then the result store, and
   otherwise computed (with retries) and recorded in both. Returns the
   unit, its decoded value and whether it came from a store. *)
let resolve ~machine ~retries ~checkpoint ~result_cache ?trace_cache ?profile sweep decode =
  let u =
    match Sweep.units ?trace_cache ?profile sweep with [ u ], _ -> u | _ -> assert false
  in
  let stores =
    Option.to_list
      (Option.map
         (fun dir ->
           Mcsim.Checkpoint.store
             (Mcsim.Checkpoint.open_ ~dir ~kind:(P.sweep_kind sweep)
                ~manifest:u.Sweep.manifest
                ~extra:[ ("machine", Json.String (P.machine_name machine)) ]
                ()))
         checkpoint)
    @ Option.to_list (Option.map (fun dir -> Mcsim.Result_store.open_ ~dir) result_cache)
  in
  let find () =
    List.find_map
      (fun st ->
        Option.bind (Mcsim.Result_store.find st ~manifest:u.manifest ~key:u.key) decode)
      stores
  in
  let compute () =
    let fields = u.compute () in
    List.iter
      (fun st -> Mcsim.Result_store.record st ~manifest:u.manifest ~key:u.key fields)
      stores;
    Option.get (decode (Json.Obj fields))
  in
  match find () with
  | Some v -> (u, v, true)
  | None -> (u, List.hd (Mcsim_util.Pool.parallel_map ~retries ~jobs:1 compute [ () ]), false)

(* "compress on the 4-cluster (ring, dependence-steered) machine, ..." *)
let print_header ~bench ~machine ~clusters ~topology ~steering ~scheduler suffix =
  let steer =
    if Mcsim_cluster.Steering.is_dynamic steering then
      Printf.sprintf ", %s-steered" (Mcsim_cluster.Steering.to_string steering)
    else ""
  in
  let machine =
    match (clusters, machine) with
    | Some n, _ ->
      Printf.sprintf "%d-cluster (%s%s)" n (Mcsim_cluster.Interconnect.to_string topology) steer
    | None, `Single -> "single-cluster"
    | None, `Dual -> "dual-cluster" ^ steer
  in
  Printf.printf "%s on the %s machine, %s scheduler%s\n"
    (Mcsim_workload.Spec92.name bench)
    machine
    (Mcsim_compiler.Pipeline.scheduler_name scheduler)
    suffix

(* The body of the table2, run and sample commands, shared with `mcsim
   resume`. --profile bypasses both stores: profiling counters cannot be
   reconstructed from a stored result. *)
let execute ~jobs ~checkpoint (o : Sweep.options) sweep =
  let t_start = Unix.gettimeofday () in
  match sweep with
  | P.Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology;
        steering } ->
    let single_config, dual_config =
      Sweep.machine_pair ~four_way ?clusters ~topology ~steering ()
    in
    let report =
      Mcsim.Table2.run_report ~jobs ~max_instrs ~seed ~benchmarks ~engine ?sampling
        ?single_config ~dual_config ~retries:o.retries ?checkpoint ?trace_cache:o.trace_cache
        ?result_cache:o.result_cache ()
    in
    let rows = report.Mcsim.Table2.rows in
    List.iter
      (fun (b, msg) -> Printf.eprintf "[FAILED] %s: %s\n%!" b msg)
      report.Mcsim.Table2.failed;
    if o.csv then print_string (Mcsim.Table2.csv rows)
    else begin
      (match sampling with
      | Some p ->
        Printf.printf "(sampled: policy %s, cycle columns are extrapolations)\n"
          (Mcsim_sampling.Sampling.policy_to_string p)
      | None -> ());
      print_string (Mcsim.Table2.render rows);
      print_newline ();
      List.iter
        (fun (ok, what) -> Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
        (Mcsim.Table2.shape_holds rows)
    end;
    Option.iter
      (table2_metrics ~t_start ~benchmarks ~max_instrs ~seed ~engine ~sampling dual_config rows)
      o.metrics_out;
    if report.Mcsim.Table2.failed <> [] then
      failwith
        (Printf.sprintf "%d of %d benchmarks failed permanently%s"
           (List.length report.Mcsim.Table2.failed)
           (List.length benchmarks)
           (match checkpoint with
           | Some dir ->
             Printf.sprintf
               "; completed units are saved under %s — rerun or 'mcsim resume %s' to retry"
               dir dir
           | None -> "; rerun with --checkpoint DIR to make progress durable"))
  | P.Run { bench; machine; scheduler; engine; clusters; topology; steering; _ } ->
    let counters =
      if o.profile then Some (Mcsim_cluster.Machine.profile_counters ()) else None
    in
    let checkpoint, result_cache =
      if o.profile then (None, None) else (checkpoint, o.result_cache)
    in
    let u, (r, trace_instrs), cached =
      resolve ~machine ~retries:o.retries ~checkpoint ~result_cache ?trace_cache:o.trace_cache
        ?profile:counters sweep Sweep.run_of_fields
    in
    print_header ~bench ~machine ~clusters ~topology ~steering ~scheduler
      (if cached then ": (from cache)" else ":");
    Printf.printf "  %d instructions in %d cycles (IPC %.2f)\n" r.Mcsim_cluster.Machine.retired
      r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc;
    Printf.printf "  branch accuracy %.3f, d-cache miss rate %.3f, i-cache miss rate %.4f\n"
      r.Mcsim_cluster.Machine.branch_accuracy r.Mcsim_cluster.Machine.dcache_miss_rate
      r.Mcsim_cluster.Machine.icache_miss_rate;
    Printf.printf "  %d single- and %d dual-distributed, %d replays\n"
      r.Mcsim_cluster.Machine.single_distributed r.Mcsim_cluster.Machine.dual_distributed
      r.Mcsim_cluster.Machine.replays;
    print_endline "  counters:";
    List.iter
      (fun (k, v) -> Printf.printf "    %-28s %d\n" k v)
      r.Mcsim_cluster.Machine.counters;
    Option.iter
      (fun p ->
        Printf.printf "  profile (%s engine):\n" (Mcsim_obs.Manifest.engine_name engine);
        print_string (Mcsim_util.Profile_counters.render ~instrs:trace_instrs p))
      counters;
    Option.iter
      (write_metrics ~t_start ~kind:"run" ~result:r ?profile:counters
         { u.manifest with trace_instrs = Some trace_instrs })
      o.metrics_out
  | P.Sample
      { bench; machine; scheduler; max_instrs; seed; engine; policy; clusters; topology;
        steering } ->
    let u, s, cached =
      resolve ~machine ~retries:o.retries ~checkpoint ~result_cache:o.result_cache
        ?trace_cache:o.trace_cache sweep
        (Sweep.sample_of_fields ~seed:policy.Mcsim_sampling.Sampling.seed)
    in
    Option.iter
      (write_metrics ~t_start ~kind:"sample" ~sampling:s
         { u.manifest with trace_instrs = Some s.Mcsim_sampling.Sampling.trace_instrs })
      o.metrics_out;
    if o.csv then print_string (Mcsim_sampling.Sampling.csv s)
    else begin
      print_header ~bench ~machine ~clusters ~topology ~steering ~scheduler
        (if cached then ": (from cache)" else ":");
      print_string (Mcsim_sampling.Sampling.render s);
      if o.full then begin
        let cfg = Sweep.config ~what:"sample" ?clusters ~topology ~steering machine in
        let trace =
          Mcsim.Experiment.trace_of ?trace_cache:o.trace_cache ~seed ~max_instrs
            (Mcsim_workload.Spec92.program bench)
            (Sweep.binary ?clusters scheduler)
        in
        let r = Mcsim_cluster.Machine.run_flat ~engine cfg trace in
        let err =
          Float.abs (s.Mcsim_sampling.Sampling.mean_ipc -. r.Mcsim_cluster.Machine.ipc)
          /. r.Mcsim_cluster.Machine.ipc
        in
        Printf.printf "  full run: IPC %.4f in %d cycles; sampling error %.2f%%%s\n"
          r.Mcsim_cluster.Machine.ipc r.Mcsim_cluster.Machine.cycles (100.0 *. err)
          (if err <= Mcsim_sampling.Sampling.ci_rel s then " (within the CI)" else "")
      end
    end

(* Record how to finish the sweep before starting it, so `mcsim resume
   DIR` works even if this process is killed immediately. When the
   directory already holds a command record, keep it until this
   invocation succeeds: a stale invocation refused by the identity
   check must not clobber the record the original sweep resumes from.
   On success the record is refreshed, so compatible reruns that change
   output flags (say, adding --metrics-out) resume with the new ones. *)
let batch sweep o jobs checkpoint =
  wrap @@ fun () ->
  match checkpoint with
  | None -> execute ~jobs ~checkpoint o sweep
  | Some dir ->
    let record () = Mcsim.Checkpoint.write_command ~dir (Sweep.command_fields sweep o) in
    let existing = Sys.file_exists (Filename.concat dir "command.json") in
    if not existing then record ();
    execute ~jobs ~checkpoint o sweep;
    if existing then record ()

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Run the Table-2 experiment (none/local vs single-cluster).")
    Term.(const batch $ table2_sweep
          $ options ~csv:csv_arg ~profile:(const false) ~full:(const false)
          $ jobs_arg $ checkpoint_arg ~resumable:true)

let run_cmd =
  let profile_arg =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Report per-stage visit/work counters and minor-heap allocation \
                   for the simulation.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark and dump all counters.")
    Term.(const batch $ run_sweep
          $ options ~csv:(const false) ~profile:profile_arg ~full:(const false)
          $ const 1 $ checkpoint_arg ~resumable:true)

let sample_cmd =
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Also run the full detailed simulation and report the sampling error.")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Sampled simulation of one benchmark (optionally vs the full detailed run).")
    Term.(const batch $ sample_sweep
          $ options ~csv:csv_arg ~profile:(const false) ~full:full_arg
          $ const 1 $ checkpoint_arg ~resumable:true)

(* `mcsim resume DIR`: reread the command.json written by a previous
   --checkpoint invocation and re-dispatch the same command against the
   same directory. Completed units load from disk; only missing ones
   recompute, so the output is byte-identical to an uninterrupted run. *)
let resume_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"Checkpoint directory of an interrupted run.")
  in
  let resume_retries_arg =
    Arg.(value & opt (some (nonneg_int ~what:"RETRIES")) None
         & info [ "retries" ] ~docv:"N"
             ~doc:"Override the recorded per-unit retry budget for this resume.")
  in
  let resume dir retries =
    wrap @@ fun () ->
    let fields = Mcsim.Checkpoint.read_command ~dir in
    let sweep, o =
      try Sweep.command_of_fields fields
      with Failure m -> failwith (Printf.sprintf "checkpoint %s: %s" dir m)
    in
    let o = { o with retries = Option.value retries ~default:o.retries } in
    execute ~jobs:(Mcsim_util.Pool.default_jobs ()) ~checkpoint:(Some dir) o sweep
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Finish an interrupted --checkpoint run (table2, run or sample): completed \
             units are loaded from the directory, only missing ones recompute.")
    Term.(const resume $ dir_pos $ resume_retries_arg)

let scenarios_cmd =
  let run () =
    List.iter
      (fun o -> print_string (Mcsim.Scenario.render o); print_newline ())
      (Mcsim.Scenario.all ())
  in
  Cmd.v (Cmd.info "scenarios" ~doc:"Replay the five execution scenarios (Figures 2-5).")
    Term.(const run $ const ())

let figure6_cmd =
  let run () = print_string (Mcsim.Figure6.render (Mcsim.Figure6.run ())) in
  Cmd.v (Cmd.info "figure6" ~doc:"Walk the local scheduler through the Figure-6 example.")
    Term.(const run $ const ())

let cycle_time_cmd =
  let run max_instrs seed benchmarks jobs =
    wrap @@ fun () ->
    print_string (Mcsim.Cycle_time.break_even_example ());
    print_newline ();
    let rows = rows ~jobs (Mcsim.Table2.matrix ~max_instrs ~seed ~benchmarks ()) in
    let net = Mcsim.Cycle_time.analyse rows in
    print_string (Mcsim.Cycle_time.render net);
    List.iter
      (fun (ok, what) -> Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
      (Mcsim.Cycle_time.conclusion_holds net)
  in
  Cmd.v (Cmd.info "cycle-time" ~doc:"The net-performance analysis of paper sections 4.2 and 5.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ jobs_arg)

(* `mcsim results`: every published simulated number, each section at
   its fixed length, as one Metrics snapshot with no timestamp, wall
   clock or GC figures. The output is a pure function of the code (and
   the same for every -j), so CI regenerates results.json and diffs it. *)
let results_cmd =
  let run jobs =
    wrap @@ fun () ->
    let module Machine = Mcsim_cluster.Machine in
    let module Sampling = Mcsim_sampling.Sampling in
    let section name max_instrs fields =
      (name, Json.Obj (("max_instrs", Json.Int max_instrs) :: fields max_instrs))
    in
    let claims l =
      Json.List
        (List.map
           (fun (holds, claim) ->
             Json.Obj [ ("holds", Json.Bool holds); ("claim", Json.String claim) ])
           l)
    in
    let table2 max_instrs =
      let rows = rows ~jobs (Mcsim.Table2.matrix ~max_instrs ()) in
      [ ("rows", Mcsim.Table2.rows_json rows);
        ("shape_holds", claims (Mcsim.Table2.shape_holds rows));
        ( "cycle_time",
          claims (Mcsim.Cycle_time.conclusion_holds (Mcsim.Cycle_time.analyse rows)) ) ]
    in
    (* The full run against the default sampling policy on each
       benchmark's local-scheduler trace, dual machine. *)
    let sampling max_instrs =
      let row bench =
        let cfg = Machine.dual_cluster () in
        let trace =
          Mcsim.Experiment.trace_of ~seed:1 ~max_instrs (Mcsim_workload.Spec92.program bench)
            { Mcsim.Experiment.native with scheduler = Mcsim_compiler.Pipeline.default_local }
        in
        let full = (Machine.run_flat cfg trace).Machine.ipc in
        let s = Sampling.run_flat cfg trace in
        Json.Obj
          [ ("benchmark", Json.String (Mcsim_workload.Spec92.name bench));
            ("full_ipc", Json.Float full);
            ("sampled_ipc", Json.Float s.Sampling.mean_ipc);
            ("ci_rel_pct", Json.Float (100.0 *. Sampling.ci_rel s));
            ( "abs_ipc_error_pct",
              Json.Float (100.0 *. Float.abs (s.Sampling.mean_ipc -. full) /. full) );
            ("detailed_instrs", Json.Int s.Sampling.detailed_instrs);
            ("warmed_instrs", Json.Int s.Sampling.warmed_instrs) ]
      in
      [ ("policy", Json.String (Sampling.policy_to_string Sampling.default_policy));
        ("rows", Json.List (Mcsim_util.Pool.parallel_map ~jobs row Mcsim_workload.Spec92.all)) ]
    in
    let extra =
      [ section "table2" 120_000 table2;
        section "clusters" 15_000 (fun max_instrs ->
            let rows = rows ~jobs (Mcsim.Cluster_count.matrix ~max_instrs ()) in
            [ ("rows", Mcsim.Cluster_count.rows_json rows) ]);
        section "steer" 15_000 (fun max_instrs ->
            let rows = rows ~jobs (Mcsim.Steer.matrix ~max_instrs ()) in
            [ ("rows", Mcsim.Steer.rows_json rows) ]);
        section "sampling_accuracy" 1_200_000 sampling;
        section "unrolling_kernel" 40_000 (fun max_instrs ->
            let sweep = sweep ~jobs { Mcsim.Ablation.unrolling_kernel with max_instrs } in
            [ ("sweep", Mcsim.Ablation.sweep_json sweep) ]);
        section "ablations" 60_000 (fun max_instrs ->
            let module A = Mcsim.Ablation in
            let module S = Mcsim_workload.Spec92 in
            let sweeps =
              List.map
                (fun (which, bench) -> sweep ~jobs (A.matrix ~max_instrs which bench))
                ([ (A.Buffers, S.Gcc1); (A.Threshold, S.Compress); (A.Globals, S.Gcc1);
                   (A.Dq, S.Compress); (A.Unroll, S.Tomcatv); (A.Queues, S.Doduc);
                   (A.Memory, S.Su2cor); (A.Mshrs, S.Su2cor) ]
                @ List.map (fun b -> (A.Partitioners, b)) S.all)
            in
            [ ("sweeps", Json.List (List.map A.sweep_json sweeps)) ]) ]
    in
    print_endline
      (Json.to_string
         (Mcsim_obs.Metrics.snapshot ~kind:"results" ~gc:false ~extra
            ~manifest:(Mcsim_obs.Manifest.make ~seed:1 (Machine.dual_cluster ()))
            ()))
  in
  Cmd.v
    (Cmd.info "results"
       ~doc:"Print every published simulated result (Table 2 and its claims, the \
             cluster-count and steering matrices, sampling accuracy, the unrolling \
             kernel, the ablation sweeps) as one deterministic JSON snapshot: the \
             committed results.json.")
    Term.(const run $ jobs_arg)

let workloads_cmd =
  let run () =
    List.iter
      (fun b ->
        let prog = Mcsim_workload.Spec92.program b in
        Printf.printf "%-9s %4d blocks %4d live ranges %5d static instrs\n  %s\n"
          (Mcsim_workload.Spec92.name b)
          (Mcsim_ir.Program.num_blocks prog)
          (Mcsim_ir.Program.num_lrs prog)
          (Mcsim_ir.Program.num_static_instrs prog)
          (Mcsim_workload.Spec92.description b))
      Mcsim_workload.Spec92.all
  in
  Cmd.v (Cmd.info "workloads" ~doc:"Describe the six SPEC92-like synthetic benchmarks.")
    Term.(const run $ const ())

(* `mcsim trace-store DIR`: inspect a --trace-cache directory. Each
   entry is validated (header + payload digest), so a corrupt file shows
   up here as invalid — the simulator itself would silently regenerate
   it. *)
let prune_keep_latest_arg =
  Arg.(value & opt (some (nonneg_int ~what:"N")) None
       & info [ "prune-keep-latest" ] ~docv:"N"
           ~doc:"Before listing, delete all but the $(docv) most recently used entries \
                 — the knob that bounds on-disk cache growth.")

let trace_store_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Trace-store directory (as passed to --trace-cache).")
  in
  let run dir prune =
    wrap @@ fun () ->
    if not (Sys.file_exists dir) then
      failwith (Printf.sprintf "trace store %s: no such directory" dir);
    let store = Mcsim.Trace_store.open_ ~dir in
    (match prune with
    | None -> ()
    | Some n ->
      let removed = Mcsim.Trace_store.prune_keep_latest store n in
      List.iter (Printf.printf "pruned %s\n") removed);
    let entries = Mcsim.Trace_store.entries store in
    if entries = [] then Printf.printf "%s: no cached traces\n" dir
    else begin
      let rows =
        List.map
          (fun e ->
            [ e.Mcsim.Trace_store.e_file;
              (if e.Mcsim.Trace_store.e_valid then
                 string_of_int e.Mcsim.Trace_store.e_instrs
               else "-");
              string_of_int e.Mcsim.Trace_store.e_bytes;
              (if e.Mcsim.Trace_store.e_valid then "ok" else "INVALID") ])
          entries
      in
      print_string
        (Mcsim_util.Text_table.render
           ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Left |]
           ([ "file"; "instrs"; "bytes"; "status" ] :: rows));
      let total_instrs =
        List.fold_left (fun a e -> a + e.Mcsim.Trace_store.e_instrs) 0 entries
      in
      let total_bytes =
        List.fold_left (fun a e -> a + e.Mcsim.Trace_store.e_bytes) 0 entries
      in
      let invalid =
        List.length (List.filter (fun e -> not e.Mcsim.Trace_store.e_valid) entries)
      in
      Printf.printf "%d trace%s, %d instructions, %d bytes%s\n" (List.length entries)
        (if List.length entries = 1 then "" else "s")
        total_instrs total_bytes
        (if invalid = 0 then ""
         else Printf.sprintf " (%d invalid — will be regenerated on use)" invalid)
    end
  in
  Cmd.v
    (Cmd.info "trace-store"
       ~doc:"List and validate the cached binary traces in a --trace-cache directory.")
    Term.(const run $ dir_pos $ prune_keep_latest_arg)

(* `mcsim result-store DIR`: inspect a --result-cache / serve-daemon
   result-store directory. Entries that do not decode as unit snapshots
   list as INVALID — the cache itself treats them as misses. *)
let result_store_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Result-store directory (as passed to --result-cache or mcsim serve).")
  in
  let run dir prune =
    wrap @@ fun () ->
    if not (Sys.file_exists dir) then
      failwith (Printf.sprintf "result store %s: no such directory" dir);
    let store = Mcsim.Result_store.open_ ~dir in
    (match prune with
    | None -> ()
    | Some n ->
      let removed = Mcsim.Result_store.prune_keep_latest store n in
      List.iter (Printf.printf "pruned %s\n") removed);
    let entries = Mcsim.Result_store.entries store in
    if entries = [] then Printf.printf "%s: no cached results\n" dir
    else begin
      let rows =
        List.map
          (fun e ->
            [ e.Mcsim.Result_store.e_file;
              e.Mcsim.Result_store.e_digest;
              e.Mcsim.Result_store.e_kind;
              e.Mcsim.Result_store.e_benchmark;
              string_of_int e.Mcsim.Result_store.e_bytes;
              (if e.Mcsim.Result_store.e_valid then "ok" else "INVALID") ])
          entries
      in
      print_string
        (Mcsim_util.Text_table.render
           ~aligns:[| Mcsim_util.Text_table.Left; Left; Left; Left; Right; Left |]
           ([ "file"; "digest"; "kind"; "benchmark"; "bytes"; "status" ] :: rows));
      let total_bytes =
        List.fold_left (fun a e -> a + e.Mcsim.Result_store.e_bytes) 0 entries
      in
      let invalid =
        List.length (List.filter (fun e -> not e.Mcsim.Result_store.e_valid) entries)
      in
      Printf.printf "%d result%s, %d bytes%s\n" (List.length entries)
        (if List.length entries = 1 then "" else "s")
        total_bytes
        (if invalid = 0 then ""
         else Printf.sprintf " (%d invalid — treated as misses)" invalid)
    end
  in
  Cmd.v
    (Cmd.info "result-store"
       ~doc:"List and validate the cached unit results in a --result-cache directory.")
    Term.(const run $ dir_pos $ prune_keep_latest_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file (default: $(b,BENCHMARK.trace.json)).")
  in
  let timeline_arg =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Also print the ASCII pipeline timeline of the same run.")
  in
  let counter_period_arg =
    Arg.(value & opt (pos_int ~what:"PERIOD") 8
         & info [ "counter-period" ] ~docv:"PERIOD"
             ~doc:"Cycle stride between occupancy counter samples.")
  in
  let run bench machine scheduler max_instrs seed engine out timeline counter_period =
    wrap @@ fun () ->
    let trace =
      Mcsim.Experiment.trace_of ~seed ~max_instrs (Mcsim_workload.Spec92.program bench)
        { Mcsim.Experiment.native with scheduler }
    in
    let cfg = Sweep.config machine in
    let tx = Mcsim_obs.Trace_export.create ~counter_period cfg in
    let tl = Mcsim.Timeline.create () in
    let on_event e =
      Mcsim_obs.Trace_export.observer tx e;
      if timeline then Mcsim.Timeline.observer tl e
    in
    let r =
      Mcsim_cluster.Machine.run_flat ~engine ~on_event
        ~on_occupancy:(Mcsim_obs.Trace_export.occupancy_observer tx)
        ~occupancy_period:counter_period cfg trace
    in
    let manifest =
      Mcsim_obs.Manifest.make ~created_unix:(Unix.time ()) ~engine ~seed
        ~benchmark:(Mcsim_workload.Spec92.name bench)
        ~scheduler:(Mcsim_compiler.Pipeline.scheduler_name scheduler)
        ~trace_instrs:(Mcsim_isa.Flat_trace.length trace) cfg
    in
    let path =
      match out with
      | Some p -> p
      | None -> Mcsim_workload.Spec92.name bench ^ ".trace.json"
    in
    Mcsim_obs.Trace_export.write_file ~manifest path tx;
    Printf.printf "wrote %s: %d instructions in %d cycles (IPC %.2f)\n" path
      r.Mcsim_cluster.Machine.retired r.Mcsim_cluster.Machine.cycles
      r.Mcsim_cluster.Machine.ipc;
    print_endline "open it at https://ui.perfetto.dev or chrome://tracing";
    if timeline then begin
      print_newline ();
      print_string (Mcsim.Timeline.render tl)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one benchmark and write a Chrome-trace (Perfetto) JSON of the pipeline.")
    Term.(const run $ bench_pos $ machine_arg () $ scheduler_arg $ max_instrs_arg $ seed_arg
          $ engine_arg $ out_arg $ timeline_arg $ counter_period_arg)

let clusters_cmd =
  let run max_instrs seed benchmarks jobs metrics_out =
    wrap @@ fun () ->
    let t_start = Unix.gettimeofday () in
    let rows = rows ~jobs (Mcsim.Cluster_count.matrix ~max_instrs ~seed ~benchmarks ()) in
    print_string (Mcsim.Cluster_count.render rows);
    Option.iter
      (sweep_metrics ~t_start ~kind:"clusters" ~benchmarks ~max_instrs ~seed
         (Mcsim_cluster.Machine.config_for_clusters 1)
         (Mcsim.Cluster_count.rows_json rows))
      metrics_out
  in
  Cmd.v
    (Cmd.info "clusters"
       ~doc:"Cluster-count x interconnect-topology scaling: 1/2/4/8 clusters, each \
             multi-cluster point wired p2p, ring and xbar.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ jobs_arg
          $ metrics_out_arg)

(* `mcsim steer`: the scheduler x steering x cluster-count matrix. Every
   policy (including static, the baseline) runs at 2/4/8 clusters under
   both the no-effort and the local compile-time schedulers. *)
let steer_cmd =
  let run max_instrs seed benchmarks topology csv jobs retries checkpoint metrics_out =
    wrap @@ fun () ->
    let t_start = Unix.gettimeofday () in
    let rows =
      Mcsim.Experiment.run ~jobs ~retries ?checkpoint
        (Mcsim.Steer.matrix ~max_instrs ~seed ~benchmarks ~topology ())
      |> Mcsim.Experiment.get_all
    in
    if csv then print_string (Mcsim.Steer.csv rows)
    else print_string (Mcsim.Steer.render rows);
    Option.iter
      (sweep_metrics ~t_start ~kind:"steer" ~benchmarks ~max_instrs ~seed
         (Mcsim_cluster.Machine.config_for_clusters ~topology 2)
         (Mcsim.Steer.rows_json rows))
      metrics_out
  in
  Cmd.v
    (Cmd.info "steer"
       ~doc:"Compile-time scheduler x dispatch-time steering policy x cluster-count \
             matrix: every steering policy at 2/4/8 clusters, against code compiled \
             with no partitioning effort and with the paper's local scheduler.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ topology_arg $ csv_arg
          $ jobs_arg $ retries_arg $ checkpoint_arg ~resumable:false $ metrics_out_arg)

let reassign_cmd =
  let run jobs =
    wrap @@ fun () -> print_string (Mcsim.Reassign.render (Mcsim.Reassign.run ~jobs ()))
  in
  Cmd.v
    (Cmd.info "reassign"
       ~doc:"Demonstrate dynamic register reassignment (paper section 6).")
    Term.(const run $ jobs_arg)

let ablate_cmd =
  let sweep_arg =
    Arg.(required & pos 0 (some (enum Mcsim.Ablation.all)) None & info [] ~docv:"SWEEP")
  in
  let bench_pos1 =
    Arg.(required & pos 1 (some bench_conv) None & info [] ~docv:"BENCHMARK")
  in
  let run which bench max_instrs jobs =
    wrap @@ fun () ->
    let s = sweep ~jobs (Mcsim.Ablation.matrix ~max_instrs which bench) in
    print_string (Mcsim.Ablation.render s)
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         ("Design-space sweeps: "
         ^ String.concat ", " (List.map fst Mcsim.Ablation.all)
         ^ "."))
    Term.(const run $ sweep_arg $ bench_pos1 $ max_instrs_arg $ jobs_arg)

let compile_cmd =
  let run bench scheduler seed =
    wrap @@ fun () ->
    let prog = Mcsim_workload.Spec92.program bench in
    let profile = Mcsim_trace.Walker.profile ~seed prog in
    let c = Mcsim_compiler.Pipeline.compile ~profile ~scheduler prog in
    print_string (Mcsim_compiler.Mach_text.print c.Mcsim_compiler.Pipeline.mach)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a benchmark and print the machine program in textual form.")
    Term.(const run $ bench_pos $ scheduler_arg $ seed_arg)

let simulate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A machine program in the textual format (see the compile command).")
  in
  let run file machine max_instrs seed =
    wrap @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    match Mcsim_compiler.Mach_text.parse text with
    | Error e ->
      prerr_endline ("parse error: " ^ e);
      exit 1
    | Ok m ->
      let trace = Mcsim_trace.Walker.trace_flat ~seed ~max_instrs m in
      let r = Mcsim_cluster.Machine.run_flat (Sweep.config machine) trace in
      Printf.printf "%s: %d instructions, %d cycles (IPC %.2f), %d dual-distributed, %d replays\n"
        m.Mcsim_compiler.Mach_prog.name r.Mcsim_cluster.Machine.retired
        r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc
        r.Mcsim_cluster.Machine.dual_distributed r.Mcsim_cluster.Machine.replays
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Parse a textual machine program and run it.")
    Term.(const run $ file_arg $ machine_arg ~doc:"Machine to run on." () $ max_instrs_arg
          $ seed_arg)

(* ------------------------------------------------------------------ *)
(* The sweep service: `mcsim serve` and `mcsim submit`.                 *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"SOCKET"
           ~doc:"Unix-domain socket path of the sweep service (as passed to \
                 $(b,mcsim serve)).")

let serve_cmd =
  let socket_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")
  in
  let stop_arg =
    Arg.(value & flag
         & info [ "stop" ]
             ~doc:"Ask the server listening on $(i,SOCKET) to shut down, instead of \
                   starting one.")
  in
  let run socket stop jobs retries result_cache trace_cache =
    wrap @@ fun () ->
    if stop then begin
      let c = Mcsim_serve.Client.connect ~socket_path:socket in
      Fun.protect
        ~finally:(fun () -> Mcsim_serve.Client.close c)
        (fun () -> Mcsim_serve.Client.stop_server c);
      print_endline "server stopping"
    end
    else
      Mcsim_serve.Server.run
        { (Mcsim_serve.Server.default ~socket_path:socket) with
          jobs;
          retries;
          result_cache;
          trace_cache;
          log = Some (fun s -> Printf.printf "[serve] %s\n%!" s) }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived sweep service on a Unix-domain socket: submitted sweeps are \
             split into units, answered from the shared result cache when possible, \
             and identical in-flight units from concurrent clients are computed once \
             (see $(b,mcsim submit)).")
    Term.(const run $ socket_pos $ stop_arg $ jobs_arg $ retries_arg $ result_cache_arg
          $ trace_cache_arg)

let progress_on_unit ~index ~total ~label ~source ~data:_ =
  Printf.eprintf "  unit %d/%d %s: %s\n%!" (index + 1) total label source

let served_line (s : Mcsim_serve.Protocol.served) =
  Printf.sprintf "served %d unit(s): %d cached, %d computed, %d coalesced"
    s.Mcsim_serve.Protocol.s_units s.Mcsim_serve.Protocol.s_cached
    s.Mcsim_serve.Protocol.s_computed s.Mcsim_serve.Protocol.s_coalesced

let with_client socket f =
  let c = Mcsim_serve.Client.connect ~socket_path:socket in
  Fun.protect ~finally:(fun () -> Mcsim_serve.Client.close c) (fun () -> f c)

(* A served sweep prints what its batch command prints for the same
   result (table2's checks and run's counters aside). *)
let submit sweep csv metrics_out socket =
  wrap @@ fun () ->
  let t_start = Unix.gettimeofday () in
  with_client socket @@ fun c ->
  let result, served = Mcsim_serve.Client.submit ~on_unit:progress_on_unit c sweep in
  let malformed () =
    failwith (Printf.sprintf "malformed %s result from server" (P.sweep_kind sweep))
  in
  (match sweep with
  | P.Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology;
        steering } ->
    let rows =
      match Mcsim_serve.Client.rows_of_result result with
      | Some rows -> rows
      | None -> malformed ()
    in
    if csv then print_string (Mcsim.Table2.csv rows)
    else begin
      print_string (Mcsim.Table2.render rows);
      print_newline ()
    end;
    prerr_endline (served_line served);
    Option.iter
      (fun path ->
        let _, cfg = Sweep.machine_pair ~four_way ?clusters ~topology ~steering () in
        table2_metrics ~t_start ~benchmarks ~max_instrs ~seed ~engine ~sampling cfg rows path)
      metrics_out
  | P.Run { bench; machine; scheduler; clusters; topology; steering; _ } ->
    (match Sweep.run_of_fields result with
    | Some (r, n) ->
      print_header ~bench ~machine ~clusters ~topology ~steering ~scheduler " (served):";
      Printf.printf "  %d instructions in %d cycles (IPC %.2f), %d replays\n" n
        r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc
        r.Mcsim_cluster.Machine.replays
    | None -> malformed ());
    prerr_endline (served_line served)
  | P.Sample { policy; _ } ->
    (match Sweep.sample_of_fields ~seed:policy.Mcsim_sampling.Sampling.seed result with
    | Some s -> print_string (Mcsim_sampling.Sampling.render s)
    | None -> malformed ());
    prerr_endline (served_line served))

let submit_table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Submit a Table-2 sweep to the service (one unit per row).")
    Term.(const submit $ table2_sweep $ csv_arg $ metrics_out_arg $ socket_arg)

let submit_run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Submit one detailed run to the service.")
    Term.(const submit $ run_sweep $ const false $ const None $ socket_arg)

let submit_sample_cmd =
  Cmd.v
    (Cmd.info "sample" ~doc:"Submit one sampled estimate to the service.")
    Term.(const submit $ sample_sweep $ const false $ const None $ socket_arg)

let submit_stats_cmd =
  let run socket =
    wrap @@ fun () ->
    with_client socket @@ fun c ->
    print_endline (Json.to_string (Mcsim_serve.Client.stats c))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print the server's counters (requests, cache hits, coalesced units, ...) \
             as a metrics snapshot.")
    Term.(const run $ socket_arg)

let submit_cmd =
  Cmd.group
    (Cmd.info "submit" ~doc:"Submit sweeps to a running mcsim serve daemon.")
    [ submit_table2_cmd; submit_run_cmd; submit_sample_cmd; submit_stats_cmd ]

let () =
  let doc = "Multicluster architecture simulator (Farkas, Chow, Jouppi & Vranesic, MICRO-30)." in
  let info = Cmd.info "mcsim" ~version:Mcsim_obs.Manifest.mcsim_version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ table1_cmd; table2_cmd; scenarios_cmd; figure6_cmd; cycle_time_cmd; workloads_cmd;
            run_cmd; sample_cmd; resume_cmd; trace_cmd; trace_store_cmd; result_store_cmd;
            serve_cmd; submit_cmd; ablate_cmd; reassign_cmd; clusters_cmd; steer_cmd;
            compile_cmd; simulate_cmd; results_cmd ]))
