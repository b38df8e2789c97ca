module Machine = Mcsim_cluster.Machine
module Flat_trace = Mcsim_isa.Flat_trace
module Assignment = Mcsim_cluster.Assignment
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Spec92 = Mcsim_workload.Spec92
module Pool = Mcsim_util.Pool

type point = {
  label : string;
  dual_cycles : int;
  speedup_pct : float;
  replays : int;
  dual_distributed : int;
}

type sweep = {
  sweep_name : string;
  benchmark : string;
  points : point list;
}

type ctx = {
  prog : Mcsim_ir.Program.t;
  profile : Mcsim_ir.Profile.t;
  native : Pipeline.compiled;
  native_trace : Flat_trace.t;
  single_cycles : int;
  max_instrs : int;
  bench_name : string;
  mutable local : (Pipeline.compiled * Flat_trace.t) option;
      (* memoized local-scheduler binary and trace, compiled on first
         use and shared by every sweep running on this context *)
}

let make_ctx ?(max_instrs = 60_000) bench =
  let prog = Spec92.program bench in
  let profile = Walker.profile prog in
  let native = Pipeline.compile ~profile ~scheduler:Pipeline.Sched_none prog in
  let native_trace = Walker.trace_flat ~max_instrs native.Pipeline.mach in
  let single = Machine.run_flat (Machine.single_cluster ()) native_trace in
  { prog; profile; native; native_trace; single_cycles = single.Machine.cycles;
    max_instrs; bench_name = Spec92.name bench; local = None }

let get_ctx ?ctx ?max_instrs bench =
  match ctx with Some c -> c | None -> make_ctx ?max_instrs bench

let point_of ctx label (r : Machine.result) =
  { label;
    dual_cycles = r.Machine.cycles;
    speedup_pct =
      Mcsim_timing.Net_performance.speedup_pct ~single_cycles:ctx.single_cycles
        ~dual_cycles:r.Machine.cycles;
    replays = r.Machine.replays;
    dual_distributed = r.Machine.dual_distributed }

(* ------------------------------------------------------------------ *)
(* Durable point fan-out                                               *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json

let ( let* ) = Option.bind

let point_json p =
  [ ("label", Json.String p.label);
    ("dual_cycles", Json.Int p.dual_cycles);
    ("speedup_pct", Json.Float p.speedup_pct);
    ("replays", Json.Int p.replays);
    ("dual_distributed", Json.Int p.dual_distributed) ]

let point_of_json d =
  let int k = Option.bind (Json.member k d) Json.get_int in
  let* label = Option.bind (Json.member "label" d) Json.get_string in
  let* dual_cycles = int "dual_cycles" in
  let* speedup_pct = Option.bind (Json.member "speedup_pct" d) Json.get_float in
  let* replays = int "replays" in
  let* dual_distributed = int "dual_distributed" in
  Some { label; dual_cycles; speedup_pct; replays; dual_distributed }

(* Every sweep fans its points out through here: one durable unit per
   point, keyed by label. The checkpoint identity is the sweep name,
   benchmark, trace budget and exact label set (the labels encode the
   swept parameter values), plus the mcsim version via the manifest —
   anything else that could change a point's value changes one of
   those. Cached points never reach the pool, so [retries]/[inject_fault]
   apply only to points that actually run. *)
let run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name ~benchmark
    ~max_instrs labelled =
  let store =
    Option.map
      (fun dir ->
        let manifest =
          Mcsim_obs.Manifest.make ~benchmark ~trace_instrs:max_instrs
            (Machine.dual_cluster ())
        in
        let extra =
          [ ("sweep", Json.String sweep_name);
            ("labels", Json.List (List.map (fun (l, _) -> Json.String l) labelled)) ]
        in
        Checkpoint.open_ ~dir ~kind:"ablation" ~manifest ~extra ())
      checkpoint
  in
  Checkpoint.fill store ~key:fst
    ~decode:(fun _ d -> point_of_json d)
    ~encode:point_json
    ~map:(Pool.parallel_map ?retries ?backoff ?inject_fault ~jobs)
    (fun (_, thunk) -> thunk ())
    labelled

(* The local-scheduler binary is compiled and traced at most once per
   context. Callers force it before fanning points out over domains, so
   the memo write never races. *)
let local_compiled ctx =
  match ctx.local with
  | Some c -> c
  | None ->
    let c = Pipeline.compile ~profile:ctx.profile ~scheduler:Pipeline.default_local ctx.prog in
    let trace = Walker.trace_flat ~max_instrs:ctx.max_instrs c.Pipeline.mach in
    ctx.local <- Some (c, trace);
    (c, trace)

let local_trace ctx = snd (local_compiled ctx)

let transfer_buffers ?jobs ?ctx ?max_instrs ?(sizes = [ 2; 4; 8; 16; 32 ]) ?retries
    ?backoff ?inject_fault ?checkpoint bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let trace = local_trace ctx in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name = "transfer-buffer entries per cluster (local scheduler)" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun n ->
           let label = Printf.sprintf "%d entries" n in
           ( label,
             fun () ->
               let cfg =
                 { (Machine.dual_cluster ()) with
                   Machine.operand_buffer_entries = n;
                   result_buffer_entries = n }
               in
               point_of ctx label (Machine.run_flat cfg trace) ))
         sizes)
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let imbalance_threshold ?jobs ?ctx ?max_instrs ?(thresholds = [ 1; 2; 4; 8; 16; 32 ])
    ?retries ?backoff ?inject_fault ?checkpoint bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name = "local-scheduler imbalance threshold" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun t ->
           let label = Printf.sprintf "threshold %d" t in
           ( label,
             fun () ->
               let c =
                 Pipeline.compile ~profile:ctx.profile
                   ~scheduler:(Pipeline.Sched_local { imbalance_threshold = t; window = 0 })
                   ctx.prog
               in
               let trace = Walker.trace_flat ~max_instrs:ctx.max_instrs c.Pipeline.mach in
               point_of ctx label (Machine.run_flat (Machine.dual_cluster ()) trace) ))
         thresholds)
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let partitioners ?jobs ?ctx ?max_instrs ?retries ?backoff ?inject_fault ?checkpoint bench
    =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  ignore (local_compiled ctx);
  let run_sched scheduler label () =
    let trace =
      match scheduler with
      | Pipeline.Sched_none -> ctx.native_trace
      | Pipeline.Sched_local { imbalance_threshold = 2; window = 0 } -> local_trace ctx
      | Pipeline.Sched_local _ | Pipeline.Sched_round_robin | Pipeline.Sched_random _ ->
        let c = Pipeline.compile ~profile:ctx.profile ~scheduler ctx.prog in
        Walker.trace_flat ~max_instrs:ctx.max_instrs c.Pipeline.mach
    in
    point_of ctx label (Machine.run_flat (Machine.dual_cluster ()) trace)
  in
  let sweep_name = "live-range partitioner" in
  { sweep_name;
    benchmark = ctx.bench_name;
    points =
      run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
        ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
        (List.map
           (fun (name, scheduler) -> (name, run_sched scheduler name))
           [ ("none", Pipeline.Sched_none); ("random", Pipeline.Sched_random 7);
             ("round-robin", Pipeline.Sched_round_robin); ("local", Pipeline.default_local)
           ]) }

let global_registers ?jobs ?ctx ?max_instrs ?retries ?backoff ?inject_fault ?checkpoint
    bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let run_assignment globals label () =
    let cfg =
      { (Machine.dual_cluster ()) with
        Machine.assignment = Assignment.create ~num_clusters:2 ~globals () }
    in
    point_of ctx label (Machine.run_flat cfg ctx.native_trace)
  in
  let sweep_name = "global-register designation (native binary)" in
  { sweep_name;
    benchmark = ctx.bench_name;
    points =
      run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
        ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
        (List.map
           (fun (name, globals) -> (name, run_assignment globals name))
           [ ("no globals", []); ("sp only", [ Mcsim_isa.Reg.sp ]);
             ("sp+gp (paper)", [ Mcsim_isa.Reg.sp; Mcsim_isa.Reg.gp ]) ]) }

let dispatch_queue_split ?jobs ?ctx ?max_instrs ?retries ?backoff ?inject_fault
    ?checkpoint bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name =
    "single-cluster dispatch-queue size (cycles vs the 128-entry baseline)"
  in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun n ->
           let label = Printf.sprintf "%d entries" n in
           ( label,
             fun () ->
               let cfg = { (Machine.single_cluster ()) with Machine.dq_entries = n } in
               let r = Machine.run_flat cfg ctx.native_trace in
               { label;
                 dual_cycles = r.Machine.cycles;
                 speedup_pct =
                   Mcsim_timing.Net_performance.speedup_pct
                     ~single_cycles:ctx.single_cycles ~dual_cycles:r.Machine.cycles;
                 replays = r.Machine.replays;
                 dual_distributed = r.Machine.dual_distributed } ))
         [ 32; 64; 128; 256 ])
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let unrolling ?jobs ?ctx ?max_instrs ?(factors = [ 1; 2; 4 ]) ?retries ?backoff
    ?inject_fault ?checkpoint bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  if List.mem 1 factors then ignore (local_compiled ctx);
  let sweep_name = "loop unrolling before the local scheduler (paper section 6)" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun factor ->
           let label =
             if factor = 1 then "no unrolling" else Printf.sprintf "unroll x%d" factor
           in
           ( label,
             fun () ->
               let trace =
                 if factor = 1 then local_trace ctx
                   (* unroll x1 is the identity: this is exactly the
                      local-scheduler binary the context already holds *)
                 else begin
                   let prog = Mcsim_compiler.Unroll.unroll ~factor ctx.prog in
                   let profile = Walker.profile prog in
                   let c =
                     Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog
                   in
                   Walker.trace_flat ~max_instrs:ctx.max_instrs c.Pipeline.mach
                 end
               in
               point_of ctx label (Machine.run_flat (Machine.dual_cluster ()) trace) ))
         factors)
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let memory_latency ?jobs ?ctx ?max_instrs ?(latencies = [ 4; 8; 16; 32; 64 ]) ?retries
    ?backoff ?inject_fault ?checkpoint bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let trace = local_trace ctx in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name = "memory fetch latency (local scheduler, matched baselines)" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun lat ->
           let label =
             Printf.sprintf "%d-cycle memory%s" lat (if lat = 16 then " (paper)" else "")
           in
           ( label,
             fun () ->
               let cache =
                 { Mcsim_cache.Cache.default_config with Mcsim_cache.Cache.miss_latency = lat }
               in
               let cfg =
                 { (Machine.dual_cluster ()) with Machine.icache = cache; dcache = cache }
               in
               (* Rebase the comparison on a single-cluster machine with the same
                  memory so the sweep isolates the latency, not the baseline. *)
               let scfg =
                 { (Machine.single_cluster ()) with Machine.icache = cache; dcache = cache }
               in
               let single = Machine.run_flat scfg ctx.native_trace in
               let r = Machine.run_flat cfg trace in
               { label;
                 dual_cycles = r.Machine.cycles;
                 speedup_pct =
                   Mcsim_timing.Net_performance.speedup_pct
                     ~single_cycles:single.Machine.cycles ~dual_cycles:r.Machine.cycles;
                 replays = r.Machine.replays;
                 dual_distributed = r.Machine.dual_distributed } ))
         latencies)
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let mshr_entries ?jobs ?ctx ?max_instrs ?retries ?backoff ?inject_fault ?checkpoint bench
    =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let trace = local_trace ctx in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name = "data-cache miss-handling entries (Farkas & Jouppi, ISCA'94)" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun (label, mshrs) ->
           ( label,
             fun () ->
               let dcache = { Mcsim_cache.Cache.default_config with Mcsim_cache.Cache.mshrs } in
               let cfg = { (Machine.dual_cluster ()) with Machine.dcache } in
               point_of ctx label (Machine.run_flat cfg trace) ))
         [ ("1 MSHR (blocking-ish)", Some 1); ("2 MSHRs", Some 2); ("4 MSHRs", Some 4);
           ("8 MSHRs", Some 8); ("inverted MSHR (paper)", None) ])
  in
  { sweep_name; benchmark = ctx.bench_name; points }

let queue_organization ?jobs ?ctx ?max_instrs ?retries ?backoff ?inject_fault ?checkpoint
    bench =
  let ctx = get_ctx ?ctx ?max_instrs bench in
  let trace = local_trace ctx in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let sweep_name = "dispatch-queue organization (single queue vs per-class queues)" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:ctx.bench_name ~max_instrs:ctx.max_instrs
      (List.map
         (fun (label, split, entries) ->
           ( label,
             fun () ->
               let cfg =
                 { (Machine.dual_cluster ()) with
                   Machine.queue_split = split;
                   dq_entries = entries }
               in
               point_of ctx label (Machine.run_flat cfg trace) ))
         [ ("unified 64 (paper)", Machine.Unified, 64);
           ("split 32/16/16 (R10000-style)", Machine.Per_class, 64);
           ("unified 32", Machine.Unified, 32);
           ("split 16/8/8", Machine.Per_class, 32) ])
  in
  { sweep_name; benchmark = ctx.bench_name; points }

(* A hand-written streaming kernel whose iterations are fully independent
   (only the trivial induction variable is loop-carried): the code shape
   the paper's unrolling proposal assumes - each unrolled iteration can be
   scheduled onto its own cluster, and the split strided streams model the
   duplicated address calculations. *)
let stream_kernel ~trip =
  let module Il = Mcsim_ir.Il in
  let module Builder = Mcsim_ir.Program.Builder in
  let module Op = Mcsim_isa.Op_class in
  let b = Builder.create ~name:"stream" in
  let sp = Builder.sp b in
  let fp n = Builder.fresh_lr b ~name:n Il.Bank_fp in
  let t1 = fp "t1" and t2 = fp "t2" and t3 = fp "t3" and t4 = fp "t4" in
  let t5 = fp "t5" and t6 = fp "t6" and t7 = fp "t7" in
  let i = Builder.fresh_lr b ~name:"i" Il.Bank_int in
  let stride base = Mcsim_ir.Mem_stream.Stride { base; stride = 8; count = 4096 } in
  let exit_blk = Builder.add_block b [] Il.Halt in
  let body = Builder.reserve_block b in
  Builder.define_block b body
    [ Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst:t1 ~mem:(stride 0x10000) ();
      Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst:t2 ~mem:(stride 0x40000) ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t1; t2 ] ~dst:t3 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t1; t1 ] ~dst:t4 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t3; t4 ] ~dst:t5 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t2; t3 ] ~dst:t6 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t5; t6 ] ~dst:t7 ();
      Il.instr ~op:Op.Store ~srcs:[ t7; sp ] ~mem:(stride 0x70000) ();
      Il.instr ~op:Op.Int_other ~srcs:[ i; i ] ~dst:i () ]
    (Il.Cond { src = Some i; model = Mcsim_ir.Branch_model.Loop { trip };
               taken = body; not_taken = exit_blk });
  let entry =
    Builder.add_block b
      [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:i () ]
      (Il.Jump body)
  in
  Builder.finish b ~entry

let unrolling_kernel ?jobs ?(max_instrs = 40_000) ?(factors = [ 1; 2; 4 ]) ?retries
    ?backoff ?inject_fault ?checkpoint () =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let prog = stream_kernel ~trip:20_000 in
  let profile0 = Walker.profile prog in
  let native = Pipeline.compile ~profile:profile0 ~scheduler:Pipeline.Sched_none prog in
  let native_trace = Walker.trace_flat ~max_instrs native.Pipeline.mach in
  let single = Machine.run_flat (Machine.single_cluster ()) native_trace in
  let ctx_single = single.Machine.cycles in
  let sweep_name = "loop unrolling on an unroll-friendly streaming kernel" in
  let points =
    run_points ?retries ?backoff ?inject_fault ?checkpoint ~jobs ~sweep_name
      ~benchmark:"stream" ~max_instrs
      (List.map
         (fun factor ->
           let label =
             if factor = 1 then "no unrolling" else Printf.sprintf "unroll x%d" factor
           in
           ( label,
             fun () ->
               let prog' = Mcsim_compiler.Unroll.unroll ~factor prog in
               let profile = Walker.profile prog' in
               let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog' in
               let trace = Walker.trace_flat ~max_instrs c.Pipeline.mach in
               let r = Machine.run_flat (Machine.dual_cluster ()) trace in
               { label;
                 dual_cycles = r.Machine.cycles;
                 speedup_pct =
                   Mcsim_timing.Net_performance.speedup_pct ~single_cycles:ctx_single
                     ~dual_cycles:r.Machine.cycles;
                 replays = r.Machine.replays;
                 dual_distributed = r.Machine.dual_distributed } ))
         factors)
  in
  { sweep_name; benchmark = "stream"; points }

let render s =
  let header = [ "point"; "cycles"; "vs single"; "replays"; "dual-dist" ] in
  let body =
    List.map
      (fun p ->
        [ p.label; string_of_int p.dual_cycles; Printf.sprintf "%+.1f%%" p.speedup_pct;
          string_of_int p.replays; string_of_int p.dual_distributed ])
      s.points
  in
  Printf.sprintf "%s - %s\n%s" s.benchmark s.sweep_name
    (Mcsim_util.Text_table.render
       ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Right; Right |]
       (header :: body))
