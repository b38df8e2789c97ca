module Machine = Mcsim_cluster.Machine
module Assignment = Mcsim_cluster.Assignment
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Json = Mcsim_obs.Json

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

type which =
  | Buffers
  | Threshold
  | Partitioners
  | Globals
  | Dq
  | Unroll
  | Queues
  | Memory
  | Mshrs

let all =
  [ ("buffers", Buffers); ("threshold", Threshold); ("partitioners", Partitioners);
    ("globals", Globals); ("dq", Dq); ("unroll", Unroll); ("queues", Queues);
    ("memory", Memory); ("mshrs", Mshrs) ]

let sweep_json s =
  let point p =
    Json.Obj
      [ ("label", Json.String p.label);
        ("dual_cycles", Json.Int p.dual_cycles);
        ("speedup_pct", Json.Float p.speedup_pct);
        ("replays", Json.Int p.replays);
        ("dual_distributed", Json.Int p.dual_distributed) ]
  in
  Json.Obj
    [ ("sweep", Json.String s.sweep_name);
      ("benchmark", Json.String s.benchmark);
      ("points", Json.List (List.map point s.points)) ]

(* ------------------------------------------------------------------ *)
(* Sweeps as (cell, baseline cell) pairs                               *)
(* ------------------------------------------------------------------ *)

let local = { Experiment.native with scheduler = Pipeline.default_local }

(* The stock single-cluster machine running the native binary: the
   baseline of every point except the memory sweep's. *)
let single =
  { Experiment.key = "single"; binary = Experiment.native; config = Machine.single_cluster () }

(* A point scored against [single]: the [local] binary on the
   dual-cluster machine unless given. *)
let cell ?(binary = local) ?(config = Machine.dual_cluster ()) label =
  ({ Experiment.key = label; binary; config }, single)

(* The local scheduler after unrolling inner loops 1, 2 and 4 times. *)
let unroll_points =
  List.map
    (fun unroll ->
      cell ~binary:{ local with unroll }
        (if unroll = 1 then "no unrolling" else Printf.sprintf "unroll x%d" unroll))
    [ 1; 2; 4 ]

let points = function
  | Buffers ->
    ( "transfer-buffer entries per cluster (local scheduler)",
      List.map
        (fun n ->
          cell (Printf.sprintf "%d entries" n)
            ~config:
              { (Machine.dual_cluster ()) with
                Machine.operand_buffer_entries = n;
                result_buffer_entries = n })
        [ 2; 4; 8; 16; 32 ] )
  | Threshold ->
    ( "local-scheduler imbalance threshold",
      List.map
        (fun t ->
          cell (Printf.sprintf "threshold %d" t)
            ~binary:
              { local with
                scheduler = Pipeline.Sched_local { imbalance_threshold = t } })
        [ 1; 2; 4; 8; 16; 32 ] )
  | Partitioners ->
    ( "live-range partitioner",
      List.map
        (fun (name, scheduler) -> cell name ~binary:{ local with scheduler })
        [ ("none", Pipeline.Sched_none); ("random", Pipeline.Sched_random 7);
          ("round-robin", Pipeline.Sched_round_robin); ("local", Pipeline.default_local) ] )
  | Globals ->
    ( "global-register designation (native binary)",
      List.map
        (fun (name, globals) ->
          cell name ~binary:Experiment.native
            ~config:
              { (Machine.dual_cluster ()) with
                Machine.assignment = Assignment.create ~num_clusters:2 ~globals () })
        [ ("no globals", []); ("sp only", [ Mcsim_isa.Reg.sp ]);
          ("sp+gp (paper)", [ Mcsim_isa.Reg.sp; Mcsim_isa.Reg.gp ]) ] )
  | Dq ->
    ( "single-cluster dispatch-queue size (cycles vs the 128-entry baseline)",
      List.map
        (fun n ->
          cell (Printf.sprintf "%d entries" n) ~binary:Experiment.native
            ~config:{ (Machine.single_cluster ()) with Machine.dq_entries = n })
        [ 32; 64; 128; 256 ] )
  | Unroll ->
    ("loop unrolling before the local scheduler (paper section 6)", unroll_points)
  | Queues ->
    ( "dispatch-queue organization (single queue vs per-class queues)",
      List.map
        (fun (label, split, entries) ->
          cell label
            ~config:
              { (Machine.dual_cluster ()) with
                Machine.queue_split = split;
                dq_entries = entries })
        [ ("unified 64 (paper)", Machine.Unified, 64);
          ("split 32/16/16 (R10000-style)", Machine.Per_class, 64);
          ("unified 32", Machine.Unified, 32); ("split 16/8/8", Machine.Per_class, 32) ] )
  | Memory ->
    (* Each point is rebased on a single-cluster machine with the same
       memory, so the sweep isolates the latency, not the baseline. *)
    ( "memory fetch latency (local scheduler, matched baselines)",
      List.map
        (fun lat ->
          let label =
            Printf.sprintf "%d-cycle memory%s" lat (if lat = 16 then " (paper)" else "")
          in
          let cache =
            { Mcsim_cache.Cache.default_config with Mcsim_cache.Cache.miss_latency = lat }
          in
          let with_memory c = { c with Machine.icache = cache; dcache = cache } in
          let point, single = cell label ~config:(with_memory (Machine.dual_cluster ())) in
          (point, { single with key = "single/" ^ label; config = with_memory single.config }))
        [ 4; 8; 16; 32; 64 ] )
  | Mshrs ->
    ( "data-cache miss-handling entries (Farkas & Jouppi, ISCA'94)",
      List.map
        (fun (label, mshrs) ->
          cell label
            ~config:
              { (Machine.dual_cluster ()) with
                Machine.dcache =
                  { Mcsim_cache.Cache.default_config with Mcsim_cache.Cache.mshrs } })
        [ ("1 MSHR (blocking-ish)", Some 1); ("2 MSHRs", Some 2); ("4 MSHRs", Some 4);
          ("8 MSHRs", Some 8); ("inverted MSHR (paper)", None) ] )

(* The pairs' cells (each baseline once) on [prog], every point scored
   against its baseline. The checkpoint identity is the sweep name and
   the exact label set (the labels encode the swept values). *)
let sweep_matrix ~max_instrs ~sweep_name prog pairs =
  let cells =
    List.fold_left
      (fun acc (c : Experiment.cell) ->
        if List.exists (fun (d : Experiment.cell) -> d.key = c.key) acc then acc
        else acc @ [ c ])
      [] (List.map fst pairs @ List.map snd pairs)
  in
  let extra =
    [ ("sweep", Json.String sweep_name);
      ("labels", Json.List (List.map (fun (c, _) -> Json.String c.Experiment.key) pairs)) ]
  in
  let row prog results =
    let result (c : Experiment.cell) =
      snd (List.find (fun ((d : Experiment.cell), _) -> d.key = c.key) results)
    in
    { sweep_name;
      benchmark = prog.Mcsim_ir.Program.name;
      points =
        List.map
          (fun (c, base) ->
            let r = result c in
            { label = c.Experiment.key;
              dual_cycles = r.Machine.cycles;
              speedup_pct =
                Mcsim_timing.Net_performance.speedup_pct
                  ~single_cycles:(result base).Machine.cycles ~dual_cycles:r.Machine.cycles;
              replays = r.Machine.replays;
              dual_distributed = r.Machine.dual_distributed })
          pairs }
  in
  { Experiment.kind = "ablation"; identity = (Machine.dual_cluster (), extra);
    programs = [ prog ]; cells; seed = 1; max_instrs; sampling = None; row }

let matrix ?(max_instrs = 60_000) which bench =
  let sweep_name, pairs = points which in
  sweep_matrix ~max_instrs ~sweep_name (Spec92.program bench) pairs

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

let unrolling_kernel =
  sweep_matrix ~max_instrs:40_000
    ~sweep_name:"loop unrolling on an unroll-friendly streaming kernel"
    (stream_kernel ~trip:20_000)
    unroll_points

let csv s =
  Mcsim_util.Text_table.csv
    ([ "benchmark"; "sweep"; "point"; "cycles"; "speedup_pct"; "replays"; "dual_distributed" ]
    :: List.map
         (fun p ->
           [ s.benchmark; s.sweep_name; p.label; string_of_int p.dual_cycles;
             Printf.sprintf "%.2f" p.speedup_pct; string_of_int p.replays;
             string_of_int p.dual_distributed ])
         s.points)

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
