module Machine = Mcsim_cluster.Machine
module Flat_trace = Mcsim_isa.Flat_trace
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Spec92 = Mcsim_workload.Spec92
module Pool = Mcsim_util.Pool
module Sampling = Mcsim_sampling.Sampling

type run = {
  scheduler : string;
  dual : Machine.result;
  speedup_pct : float;
  static_single : int;
  static_dual : int;
  spills : int;
}

type comparison = {
  benchmark : string;
  trace_instrs : int;
  single : Machine.result;
  runs : run list;
}

let default_schedulers =
  [ ("none", Pipeline.Sched_none); ("local", Pipeline.default_local) ]

(* Per-benchmark preparation shared by all of that benchmark's
   simulations: the profile, the native (cluster-oblivious) binary and
   its committed trace. Everything here is a pure function of
   (program, seed), so recomputing it would be value-identical — it is
   shared only to avoid repeating the work. *)
type prep = {
  p_prog : Mcsim_ir.Program.t;
  p_profile : Mcsim_ir.Profile.t;
  p_native : Pipeline.compiled;
  p_native_trace : Flat_trace.t;
}

(* Cache identity of a scheduler, parameters included ([scheduler_name]
   alone would alias differently-tuned local/random schedulers). *)
let scheduler_ident = function
  | Pipeline.Sched_none -> "none"
  | Pipeline.Sched_local { imbalance_threshold; window } ->
    Printf.sprintf "local:%d:%d" imbalance_threshold window
  | Pipeline.Sched_round_robin -> "round_robin"
  | Pipeline.Sched_random s -> Printf.sprintf "random:%d" s

(* The target cluster count changes the compiled binary (partitioning
   and residue-class register assignment), hence the trace. Non-default
   counts get their own trace-store keys; the historical 2-cluster keys
   are unchanged. *)
let scheduler_ident_n ~clusters scheduler =
  if clusters = 2 then scheduler_ident scheduler
  else Printf.sprintf "%s@%dcl" (scheduler_ident scheduler) clusters

(* The committed trace of [prog]'s binary under [scheduler]: from the
   trace store when present there, otherwise walked (and saved). Keyed by
   benchmark name — the store assumes a name identifies one program. *)
let trace_of ~trace_store ~clusters ~seed ~max_instrs ~benchmark ~scheduler walk =
  match trace_store with
  | None -> walk ()
  | Some store ->
    let key =
      { Trace_store.benchmark;
        scheduler = scheduler_ident_n ~clusters scheduler;
        seed;
        max_instrs }
    in
    fst (Trace_store.load_or_build store key walk)

let make_prep ?trace_store ~clusters ~seed ~max_instrs prog =
  let profile = Walker.profile ~seed prog in
  let native = Pipeline.compile ~clusters ~profile ~scheduler:Pipeline.Sched_none prog in
  let native_trace =
    trace_of ~trace_store ~clusters ~seed ~max_instrs
      ~benchmark:prog.Mcsim_ir.Program.name ~scheduler:Pipeline.Sched_none (fun () ->
        Walker.trace_flat ~seed ~max_instrs native.Pipeline.mach)
  in
  { p_prog = prog; p_profile = profile; p_native = native; p_native_trace = native_trace }

(* One independent simulation: a benchmark's native binary on the
   single-cluster machine, or one (scheduler, dual-config) run. *)
type sim = Sim_single of int | Sim_sched of int * (string * Pipeline.scheduler)

type sim_out =
  | Out_single of Machine.result
  | Out_sched of {
      name : string;
      dual : Machine.result;
      static_single : int;
      static_dual : int;
      spills : int;
    }

(* One machine simulation: the full detailed model, or — when a sampling
   policy is given — the sampled estimate standing in for it. *)
let simulate ~engine ~sampling cfg trace =
  match sampling with
  | None -> Machine.run_flat ?engine cfg trace
  | Some policy -> Sampling.estimate (Sampling.run_flat ?engine ~policy cfg trace)

let run_sim ~clusters ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config
    ~trace_store prep_of = function
  | Sim_single i ->
    Out_single (simulate ~engine ~sampling single_config (prep_of i).p_native_trace)
  | Sim_sched (i, (name, scheduler)) ->
    let prep = prep_of i in
    let compiled =
      match scheduler with
      | Pipeline.Sched_none -> prep.p_native
      | Pipeline.Sched_local _ | Pipeline.Sched_round_robin | Pipeline.Sched_random _ ->
        Pipeline.compile ~clusters ~profile:prep.p_profile ~scheduler prep.p_prog
    in
    let trace =
      match scheduler with
      | Pipeline.Sched_none -> prep.p_native_trace
      | Pipeline.Sched_local _ | Pipeline.Sched_round_robin | Pipeline.Sched_random _ ->
        trace_of ~trace_store ~clusters ~seed ~max_instrs
          ~benchmark:prep.p_prog.Mcsim_ir.Program.name ~scheduler (fun () ->
            Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach)
    in
    let dual = simulate ~engine ~sampling dual_config trace in
    let static_single, static_dual =
      Pipeline.dual_distribution_count dual_config.Machine.assignment compiled.Pipeline.mach
    in
    Out_sched
      { name;
        dual;
        static_single;
        static_dual;
        spills = List.length compiled.Pipeline.alloc.Mcsim_compiler.Regalloc.spilled_lrs }

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics

let ( let* ) = Option.bind

(* One durable unit per simulation, plus a per-benchmark meta record for
   the value that stage-1 preparation contributes to the output (the
   committed trace length). *)
let key_meta name = name ^ "/meta"

let unit_key names = function
  | Sim_single i -> names.(i) ^ "/single"
  | Sim_sched (i, (sname, _)) -> names.(i) ^ "/sched/" ^ sname

let open_store ~dir ~seed ~max_instrs ~engine ~sampling ~schedulers ~single_config
    ~dual_config progs =
  let manifest =
    Mcsim_obs.Manifest.make ?engine ~seed ?sampling
      ~benchmark:
        (String.concat "," (List.map (fun p -> p.Mcsim_ir.Program.name) progs))
      ~trace_instrs:max_instrs dual_config
  in
  (* The manifest pins the dual config, seed, engine, sampling policy and
     trace budget; everything else that changes the rows goes in here. *)
  let extra =
    [ ("single_config", Json.String (Mcsim_obs.Manifest.config_description single_config));
      ("schedulers", Json.List (List.map (fun (n, _) -> Json.String n) schedulers));
      ("sampling_seed",
       match sampling with
       | Some p -> Json.Int p.Sampling.seed
       | None -> Json.Null) ]
  in
  Checkpoint.open_ ~dir ~kind:"experiment" ~manifest ~extra ()

let decode_out spec d =
  let* r = Json.member "result" d in
  let* r = Metrics.result_of_json r in
  match spec with
  | Sim_single _ -> Some (Out_single r)
  | Sim_sched (_, (sname, _)) ->
    let int k = Option.bind (Json.member k d) Json.get_int in
    let* static_single = int "static_single" in
    let* static_dual = int "static_dual" in
    let* spills = int "spills" in
    Some (Out_sched { name = sname; dual = r; static_single; static_dual; spills })

let encode_out = function
  | Out_single r -> [ ("result", Metrics.result_json r) ]
  | Out_sched { dual; static_single; static_dual; spills; _ } ->
    [ ("result", Metrics.result_json dual);
      ("static_single", Json.Int static_single);
      ("static_dual", Json.Int static_dual);
      ("spills", Json.Int spills) ]

(* ------------------------------------------------------------------ *)
(* The fan-out core                                                    *)
(* ------------------------------------------------------------------ *)

(* Like run_many, but durable: failure degrades to a per-benchmark
   [Error] instead of aborting the sweep, and with [checkpoint] every
   completed unit is stored and never recomputed. Cached units never
   reach the pool, so [retries]/[inject_fault] only ever apply to units
   that actually execute. *)
let run_many_core ~jobs ~max_instrs ~seed ~schedulers ~engine ~sampling ~single_config
    ~dual_config ~retries ~backoff ~inject_fault ~checkpoint ~trace_cache progs :
    (comparison, Pool.failure) result list =
  let single_config =
    match single_config with Some c -> c | None -> Machine.single_cluster ()
  in
  let dual_config = match dual_config with Some c -> c | None -> Machine.dual_cluster () in
  (* Binaries are scheduled for the partitioned machine they run on. *)
  let clusters = Mcsim_cluster.Assignment.num_clusters dual_config.Machine.assignment in
  let trace_store = Option.map (fun dir -> Trace_store.open_ ~dir) trace_cache in
  let store =
    Option.map
      (fun dir ->
        open_store ~dir ~seed ~max_instrs ~engine ~sampling ~schedulers ~single_config
          ~dual_config progs)
      checkpoint
  in
  let names = Array.of_list (List.map (fun p -> p.Mcsim_ir.Program.name) progs) in
  let n = Array.length names in
  let unit_specs i = Sim_single i :: List.map (fun s -> Sim_sched (i, s)) schedulers in
  let cached_meta =
    Array.init n (fun i ->
        let* st = store in
        let* d = Checkpoint.find st (key_meta names.(i)) in
        Option.bind (Json.member "trace_instrs" d) Json.get_int)
  in
  let recorded spec =
    Option.is_some
      (let* st = store in
       let* d = Checkpoint.find st (unit_key names spec) in
       decode_out spec d)
  in
  (* Stage 1: per-benchmark preparation, one job per benchmark that
     still has work to do. *)
  let prep_jobs =
    List.filteri
      (fun i _ ->
        Option.is_none cached_meta.(i) || not (List.for_all recorded (unit_specs i)))
      (List.mapi (fun i p -> (i, p)) progs)
  in
  let preps : prep option array = Array.make n None in
  let prep_fail : Pool.failure option array = Array.make n None in
  Pool.parallel_map_status ~retries ?backoff ?inject_fault ~jobs
    (fun (i, prog) ->
      let p = make_prep ?trace_store ~clusters ~seed ~max_instrs prog in
      Option.iter
        (fun st ->
          Checkpoint.record st ~key:(key_meta names.(i))
            [ ("trace_instrs", Json.Int (Flat_trace.length p.p_native_trace)) ])
        store;
      (i, p))
    prep_jobs
  |> List.iter2
       (fun (i, _) st ->
         match st with
         | Pool.Done (_, p) -> preps.(i) <- Some p
         | Pool.Failed f -> prep_fail.(i) <- Some f)
       prep_jobs;
  (* Stage 2: every (benchmark x scheduler x machine-config) simulation
     of a benchmark whose preparation succeeded; each one the checkpoint
     lacks is its own job. Job order fixes result order; which domain
     runs which job is irrelevant because jobs share nothing mutable. *)
  let specs =
    List.concat
      (List.init n (fun i -> if Option.is_none prep_fail.(i) then unit_specs i else []))
  in
  let outs =
    Checkpoint.fill store ~key:(unit_key names)
      ~decode:(fun spec d -> Option.map (fun o -> Pool.Done o) (decode_out spec d))
      ~encode:encode_out
      ~map:(Pool.parallel_map_status ~retries ?backoff ?inject_fault ~jobs)
      (run_sim ~clusters ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config
         ~trace_store (fun i -> Option.get preps.(i)))
      specs
  in
  let units = List.combine specs outs in
  List.init n (fun i ->
      match prep_fail.(i) with
      | Some f -> Error f
      | None -> (
        let statuses =
          List.filter_map
            (fun (spec, st) ->
              match spec with
              | Sim_single j | Sim_sched (j, _) -> if i = j then Some st else None)
            units
        in
        match
          List.find_map (function Pool.Failed f -> Some f | Pool.Done _ -> None) statuses
        with
        | Some f -> Error f
        | None -> (
          let outs =
            List.map (function Pool.Done o -> o | Pool.Failed _ -> assert false) statuses
          in
          match outs with
          | Out_single single :: sched_outs ->
            let runs =
              List.map
                (function
                  | Out_sched { name; dual; static_single; static_dual; spills } ->
                    { scheduler = name;
                      dual;
                      speedup_pct =
                        Mcsim_timing.Net_performance.speedup_pct
                          ~single_cycles:single.Machine.cycles
                          ~dual_cycles:dual.Machine.cycles;
                      static_single;
                      static_dual;
                      spills }
                  | Out_single _ -> assert false)
                sched_outs
            in
            let trace_instrs =
              match preps.(i) with
              | Some p -> Flat_trace.length p.p_native_trace
              | None -> Option.get cached_meta.(i)
            in
            Ok { benchmark = names.(i); trace_instrs; single; runs }
          | Out_sched _ :: _ | [] -> assert false)))

let run_many_status ?(jobs = Pool.default_jobs ()) ?(max_instrs = 120_000) ?(seed = 1)
    ?(schedulers = default_schedulers) ?engine ?sampling ?single_config ?dual_config
    ?(retries = 0) ?backoff ?inject_fault ?checkpoint ?trace_cache progs =
  run_many_core ~jobs ~max_instrs ~seed ~schedulers ~engine ~sampling ~single_config
    ~dual_config ~retries ~backoff ~inject_fault ~checkpoint ~trace_cache progs
  |> List.map (Result.map_error Pool.failure_message)

let run_many ?(jobs = Pool.default_jobs ()) ?(max_instrs = 120_000) ?(seed = 1)
    ?(schedulers = default_schedulers) ?engine ?sampling ?single_config ?dual_config
    ?(retries = 0) ?backoff ?inject_fault ?checkpoint ?trace_cache progs =
  let results =
    run_many_core ~jobs ~max_instrs ~seed ~schedulers ~engine ~sampling ~single_config
      ~dual_config ~retries ~backoff ~inject_fault ~checkpoint ~trace_cache progs
  in
  (* As if the sweep had run serially: the first failing benchmark's
     exception propagates with its original backtrace. *)
  match List.find_map (function Error f -> Some f | Ok _ -> None) results with
  | Some f -> Printexc.raise_with_backtrace f.Pool.exn f.Pool.backtrace
  | None -> List.map (function Ok c -> c | Error _ -> assert false) results

let run_benchmark ?(max_instrs = 120_000) ?(seed = 1)
    ?(schedulers = default_schedulers) ?engine ?sampling ?single_config ?dual_config
    ?trace_cache prog =
  match
    run_many ~jobs:1 ~max_instrs ~seed ~schedulers ?engine ?sampling ?single_config
      ?dual_config ?trace_cache [ prog ]
  with
  | [ c ] -> c
  | _ -> assert false

let speedup_of c name =
  List.find_map (fun r -> if r.scheduler = name then Some r.speedup_pct else None) c.runs

(* ------------------------------------------------------------------ *)
(* (benchmark x cell) matrices                                         *)
(* ------------------------------------------------------------------ *)

let matrix ?jobs ?retries ?backoff ?inject_fault ?checkpoint ~kind ~identity:(config, extra)
    ~max_instrs ~seed benchmarks cells =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let store =
    Option.map
      (fun dir ->
        let manifest =
          Mcsim_obs.Manifest.make ~seed
            ~benchmark:(String.concat "," (List.map Spec92.name benchmarks))
            ~trace_instrs:max_instrs config
        in
        Checkpoint.open_ ~dir ~kind ~manifest ~extra ())
      checkpoint
  in
  (* Stage 1: one job per benchmark (program + profile). Stage 2: one job
     per (benchmark x cell) the checkpoint lacks; each compiles, traces
     and simulates independently from the shared immutable profile, so
     the results are the same for every [jobs]. *)
  let preps =
    Pool.parallel_map ?retries ?backoff ?inject_fault ~jobs
      (fun b ->
        let prog = Spec92.program b in
        (Spec92.name b, prog, Walker.profile ~seed prog))
      benchmarks
  in
  let results =
    Checkpoint.fill store
      ~key:(fun ((name, _, _), (key, _, _, _)) -> name ^ "/" ^ key)
      ~decode:(fun _ d -> Option.bind (Json.member "result" d) Metrics.result_of_json)
      ~encode:(fun r -> [ ("result", Metrics.result_json r) ])
      ~map:(Pool.parallel_map ?retries ?backoff ?inject_fault ~jobs)
      (fun ((_, prog, profile), (_, clusters, scheduler, config)) ->
        let c = Pipeline.compile ~clusters ~profile ~scheduler prog in
        Machine.run_flat config (Walker.trace_flat ~seed ~max_instrs c.Pipeline.mach))
      (List.concat_map (fun p -> List.map (fun cell -> (p, cell)) cells) preps)
  in
  let per = List.length cells in
  List.mapi (fun i _ -> List.filteri (fun j _ -> j / per = i) results) benchmarks
