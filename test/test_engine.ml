(* Differential tests for the two issue engines: the dependence-driven
   wakeup engine must produce results bit-identical to the reference
   per-cycle scan engine — same cycles, same IPC, same counters, same
   event stream — on every configuration and workload. Also unit tests
   for the event-wheel and vector primitives the wakeup engine is built
   on. *)

module Machine = Mcsim_cluster.Machine
module Sampling = Mcsim_sampling.Sampling
module Spec92 = Mcsim_workload.Spec92
module Walker = Mcsim_trace.Walker
module Pipeline = Mcsim_compiler.Pipeline
module Vec = Machine.Vec
module Bucket_queue = Machine.Bucket_queue
module Profile_counters = Mcsim_util.Profile_counters
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------- engine equivalence: helpers --------------------- *)

(* Human-readable first divergence, for failure messages. *)
let explain_diff (a : Machine.result) (b : Machine.result) =
  if a.Machine.cycles <> b.Machine.cycles then
    Printf.sprintf "cycles: scan %d, wakeup %d" a.Machine.cycles b.Machine.cycles
  else if a.Machine.ipc <> b.Machine.ipc then
    Printf.sprintf "ipc: scan %f, wakeup %f" a.Machine.ipc b.Machine.ipc
  else begin
    let rec first_counter_diff xs ys =
      match (xs, ys) with
      | [], [] -> "results differ outside cycles/ipc/counters"
      | (k, v) :: xs', (k', v') :: ys' ->
        if k <> k' then Printf.sprintf "counter sets differ: %s vs %s" k k'
        else if v <> v' then Printf.sprintf "counter %s: scan %d, wakeup %d" k v v'
        else first_counter_diff xs' ys'
      | (k, _) :: _, [] | [], (k, _) :: _ ->
        Printf.sprintf "counter %s present in one engine only" k
    in
    first_counter_diff a.Machine.counters b.Machine.counters
  end

let assert_engines_agree ?(msg = "engines agree") cfg trace =
  let scan = Machine.run_flat ~engine:`Scan cfg trace in
  let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
  if scan <> wake then
    Alcotest.failf "%s: %s" msg (explain_diff scan wake);
  check Alcotest.bool msg true true

(* ----------------- engine equivalence: property -------------------- *)

let qcheck_engines_agree cfg_of seed =
  let trace = Test_audit.trace_of seed Pipeline.default_local in
  let cfg = cfg_of () in
  let scan = Machine.run_flat ~engine:`Scan cfg trace in
  let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
  if scan <> wake then
    QCheck.Test.fail_reportf "engines diverge (seed %d): %s" seed (explain_diff scan wake);
  true

let equiv_dual_unified =
  QCheck.Test.make ~name:"scan = wakeup on random workloads (dual, unified queue)" ~count:8
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree Machine.dual_cluster)

let equiv_dual_split =
  QCheck.Test.make ~name:"scan = wakeup on random workloads (dual, per-class queues)"
    ~count:8
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree (fun () ->
         { (Machine.dual_cluster ()) with Machine.queue_split = Machine.Per_class }))

let equiv_starved_buffers =
  QCheck.Test.make ~name:"scan = wakeup under starved transfer buffers (replays)" ~count:6
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree (fun () ->
         { (Machine.dual_cluster ()) with
           Machine.operand_buffer_entries = 1;
           result_buffer_entries = 1;
           replay_threshold = 4 }))

let equiv_tiny_queues =
  QCheck.Test.make ~name:"scan = wakeup with tiny dispatch queues" ~count:6
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree (fun () ->
         { (Machine.dual_cluster ()) with Machine.dq_entries = 4 }))

(* Multi-hop interconnects: ring and crossbar are the only topologies
   whose hop latency exceeds one cycle, so these are the configurations
   where the hop-threaded transfer timing can diverge between engines. *)
let qcheck_engines_agree_n ~clusters ~topology seed =
  let trace =
    if clusters > 4 then Test_audit.octa_trace seed else Test_audit.quad_trace seed
  in
  let cfg = Machine.config_for_clusters ~topology clusters in
  let scan = Machine.run_flat ~engine:`Scan cfg trace in
  let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
  if scan <> wake then
    QCheck.Test.fail_reportf "engines diverge (%d clusters, %s, seed %d): %s" clusters
      (Mcsim_cluster.Interconnect.to_string topology)
      seed (explain_diff scan wake);
  true

let equiv_quad_ring =
  QCheck.Test.make ~name:"scan = wakeup on the four-cluster ring" ~count:6
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree_n ~clusters:4 ~topology:Mcsim_cluster.Interconnect.Ring)

let equiv_octa_ring =
  QCheck.Test.make ~name:"scan = wakeup on the eight-cluster ring" ~count:6
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree_n ~clusters:8 ~topology:Mcsim_cluster.Interconnect.Ring)

let equiv_octa_xbar =
  QCheck.Test.make ~name:"scan = wakeup on the eight-cluster crossbar" ~count:6
    QCheck.(int_bound 10_000)
    (qcheck_engines_agree_n ~clusters:8 ~topology:Mcsim_cluster.Interconnect.Crossbar)

(* ----------------- engine equivalence: stock configs ---------------- *)

(* Every stock configuration, both queue-split modes, on a fixed
   workload: every (width, clusters) pair the machine rule builds. *)
let stock_configs () =
  let both name cfg =
    [ (name ^ "/unified", { cfg with Machine.queue_split = Machine.Unified });
      (name ^ "/per-class", { cfg with Machine.queue_split = Machine.Per_class }) ]
  in
  List.concat_map
    (fun (width, n) ->
      both (Printf.sprintf "%d-wide/%dcl" width n) (Machine.config_for_clusters ~width n))
    [ (8, 1); (8, 2); (8, 4); (8, 8); (4, 1); (4, 2) ]

(* A binary scheduled for the machine it runs on: the trace's register
   assignment must match the config's cluster count. *)
let trace_for ~dual ~quad ~octa cfg =
  match Mcsim_cluster.Assignment.num_clusters cfg.Machine.assignment with
  | n when n > 4 -> octa
  | n when n > 2 -> quad
  | _ -> dual

let equiv_stock_configs () =
  let dual = Test_audit.trace_of 42 Pipeline.default_local in
  let quad = Test_audit.quad_trace 42 in
  let octa = Test_audit.octa_trace 42 in
  List.iter
    (fun (name, cfg) ->
      assert_engines_agree ~msg:name cfg (trace_for ~dual ~quad ~octa cfg))
    (stock_configs ())

let equiv_benchmarks () =
  (* One real-benchmark preset per run on the dual machine. *)
  List.iter
    (fun b ->
      let prog = Spec92.program b in
      let profile = Walker.profile prog in
      let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
      let trace = Walker.trace_flat ~max_instrs:6_000 c.Pipeline.mach in
      assert_engines_agree ~msg:(Spec92.name b) (Machine.dual_cluster ()) trace)
    Spec92.all

(* ----------------- engine equivalence: event streams ---------------- *)

let event_t = Alcotest.testable Machine.pp_event ( = )

let events_of engine cfg trace =
  let evs = ref [] in
  let (_ : Machine.result) =
    Machine.run_flat ~engine ~on_event:(fun e -> evs := e :: !evs) cfg trace
  in
  List.rev !evs

let equiv_event_stream () =
  let trace = Test_audit.trace_of 7 Pipeline.default_local in
  let cfg = Machine.dual_cluster () in
  let scan_evs = events_of `Scan cfg trace in
  let wake_evs = events_of `Wakeup cfg trace in
  check Alcotest.bool "some events" true (List.length scan_evs > 0);
  check (Alcotest.list event_t) "identical event streams" scan_evs wake_evs

(* ----------------- engine equivalence: sampled runs ----------------- *)

let equiv_sampled () =
  let prog = Spec92.program Spec92.Compress in
  let profile = Walker.profile prog in
  let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
  let trace = Walker.trace_flat ~max_instrs:60_000 c.Pipeline.mach in
  let policy = { Sampling.interval = 10_000; warmup = 1_000; detail = 1_000; seed = 3 } in
  let scan = Sampling.run_flat ~engine:`Scan ~policy (Machine.dual_cluster ()) trace in
  let wake = Sampling.run_flat ~engine:`Wakeup ~policy (Machine.dual_cluster ()) trace in
  check (Alcotest.float 0.0) "mean ipc" scan.Sampling.mean_ipc wake.Sampling.mean_ipc;
  check Alcotest.int "est cycles" scan.Sampling.est_cycles wake.Sampling.est_cycles;
  if scan.Sampling.machine <> wake.Sampling.machine then
    Alcotest.failf "sampled machine results diverge: %s"
      (explain_diff scan.Sampling.machine wake.Sampling.machine)

let counter_digest (r : Machine.result) =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Machine.counters)))

(* The two machines of perfbench's steer-sampled workload with their
   stock buffers (4 and 2 entries), where copies wait on full transfer
   buffers throughout, on local-scheduled binaries compiled for them:
   60 000 instructions, two units under the default sampling policy.
   Both engines agree, and the estimate, replays and an MD5 of every
   counter match what the code produced before transfer-buffer frees
   became wakeup events. *)
let equiv_sampled_steered () =
  let machine topology n steering =
    { (Machine.config_for_clusters ~topology n) with Machine.steering }
  in
  List.iter
    (fun (name, clusters, cfg, pins) ->
      List.iter
        (fun (b, est_cycles, replays, digest) ->
          let what = Printf.sprintf "%s, %s" name (Spec92.name b) in
          let prog = Spec92.program b in
          let profile = Walker.profile ~seed:1 prog in
          let c = Pipeline.compile ~clusters ~profile ~scheduler:Pipeline.default_local prog in
          let trace = Walker.trace_flat ~seed:1 ~max_instrs:60_000 c.Pipeline.mach in
          let run engine = Sampling.run_flat ~engine ~policy:Sampling.default_policy cfg trace in
          let scan = run `Scan and wake = run `Wakeup in
          if scan.Sampling.machine <> wake.Sampling.machine then
            Alcotest.failf "%s: sampled machine results diverge: %s" what
              (explain_diff scan.Sampling.machine wake.Sampling.machine);
          check Alcotest.int (what ^ ": scan est cycles") est_cycles scan.Sampling.est_cycles;
          check Alcotest.int (what ^ ": wakeup est cycles") est_cycles wake.Sampling.est_cycles;
          check Alcotest.int (what ^ ": replays") replays wake.Sampling.machine.Machine.replays;
          check Alcotest.string (what ^ ": counter digest") digest
            (counter_digest wake.Sampling.machine))
        pins)
    [ ( "4-cluster ring, ineffectual",
        4,
        machine Mcsim_cluster.Interconnect.Ring 4 Mcsim_cluster.Steering.Ineffectual,
        [ (Spec92.Compress, 37_650, 3, "ee92650df6329949172caef5cebc65c6");
          (Spec92.Su2cor, 127_005, 197, "1ec72a5303286fa8783a8bdf0f751863") ] );
      ( "8-cluster crossbar, dependence",
        8,
        machine Mcsim_cluster.Interconnect.Crossbar 8 Mcsim_cluster.Steering.Dependence,
        [ (Spec92.Compress, 55_050, 24, "ade9f90e1b0e7631776bba63d05329a6");
          (Spec92.Su2cor, 313_845, 387, "552b728960c46ff4894ea783c318c3e9") ] ) ]

(* ------------------- record pooling invariants ---------------------- *)

(* Random workloads across every stock configuration, both queue splits,
   both engines: the pooled copy/group records must leave cycles, IPC and
   every counter bit-identical between the engines (each exercises a
   different recycle path through the pools). *)
let qcheck_pooled_stock seed =
  let dual = Test_audit.trace_of seed Pipeline.default_local in
  let quad = Test_audit.quad_trace seed in
  let octa = Test_audit.octa_trace seed in
  List.iter
    (fun (name, cfg) ->
      let trace = trace_for ~dual ~quad ~octa cfg in
      let scan = Machine.run_flat ~engine:`Scan cfg trace in
      let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
      if scan <> wake then
        QCheck.Test.fail_reportf "pooled engines diverge (%s, seed %d): %s" name seed
          (explain_diff scan wake))
    (stock_configs ());
  true

let equiv_pooled_stock =
  QCheck.Test.make ~name:"pooled records: scan = wakeup on random workloads, stock configs"
    ~count:4
    QCheck.(int_bound 10_000)
    qcheck_pooled_stock

(* Driving one machine state over the same trace repeatedly must reach a
   fixed point in the pools: after the first run the built populations
   stop growing (records are recycled, not re-allocated), and a drained
   pipeline leaves no live group (live copies are at most squash-limbo
   residue awaiting its flush watermark). *)
let pool_fixed_point ~cfg ~seed () =
  let flat = Test_audit.trace_of seed Pipeline.default_local in
  let len = Mcsim_isa.Flat_trace.length flat in
  let st = Machine.init_state cfg in
  let built_after () =
    let (_ : Machine.interval) =
      Machine.run_interval_flat st flat ~lo:0 ~hi:len ~measure_from:0
    in
    let copy_live, copy_built, group_live, group_built = Machine.pool_stats st in
    check Alcotest.int "drained: no live group" 0 group_live;
    check Alcotest.bool "live copies are limbo residue only" true (copy_live <= copy_built);
    (copy_built, group_built)
  in
  let _ = built_after () in
  let c2, g2 = built_after () in
  let c3, g3 = built_after () in
  check Alcotest.int "copy pool at fixed point" c2 c3;
  check Alcotest.int "group pool at fixed point" g2 g3;
  (* Recycling actually happened: the trace dispatches far more copies
     than the pool ever built. *)
  check Alcotest.bool "built well below dispatched" true (c3 < len)

let pool_fixed_point_steady = pool_fixed_point ~cfg:(Machine.dual_cluster ()) ~seed:11

(* Starved transfer buffers force replays every few hundred instructions:
   the squash path must return records through limbo without leaking or
   double-freeing (Freelist.free raises on a double free). *)
let pool_fixed_point_squash =
  pool_fixed_point
    ~cfg:
      { (Machine.dual_cluster ()) with
        Machine.operand_buffer_entries = 1;
        result_buffer_entries = 1;
        replay_threshold = 4 }
    ~seed:17

(* [Machine.check_invariants] every cycle rechecks the running
   per-queue waiting counts against a rescan of the ROB, every copy
   parked on a transfer buffer against that buffer, the pool slots and
   the physical registers, through dispatch, issue, parks, wakes, squash
   and replay, on both engines.
   The 8-cluster crossbar's small buffers keep copies parked and replays
   frequent. Its operand buffers keep two entries, the fewest
   [Machine.validate_config] accepts beyond two clusters (see
   [one_instruction_shapes]). *)
let waiting_totals_cross_check () =
  let dual_cfg =
    { (Machine.dual_cluster ()) with
      Machine.operand_buffer_entries = 2;
      result_buffer_entries = 2;
      replay_threshold = 4 }
  in
  let xbar8 =
    { (Machine.config_for_clusters ~topology:Mcsim_cluster.Interconnect.Crossbar 8) with
      Machine.steering = Mcsim_cluster.Steering.Dependence;
      operand_buffer_entries = 2;
      result_buffer_entries = 1 }
  in
  List.iter
    (fun (name, cfg, trace) ->
      List.iter
        (fun engine ->
          let checks = ref 0 in
          let on_cycle st =
            incr checks;
            Machine.check_invariants st
          in
          let res = Machine.run_flat ~engine ~on_cycle cfg trace in
          check Alcotest.bool (name ^ ": checked every cycle") true
            (!checks = res.Machine.cycles);
          check Alcotest.bool (name ^ ": replays happen") true (res.Machine.replays > 0))
        [ `Scan; `Wakeup ])
    [ ("dual, 2-entry buffers", dual_cfg, Test_audit.trace_of 23 Pipeline.default_local);
      ("8-cluster crossbar, 2/1-entry buffers", xbar8, Test_audit.octa_trace 23) ]

(* A machine either finishes every one-instruction trace or is refused
   at [init_state]. The shapes are [Int_other d <- s1, s2], one per
   (destination cluster, source cluster, source cluster), each position
   a distinct register local to its cluster, plus a global register in
   each position in turn. The machines are the dual machine under every
   policy and the 4-cluster ring and 8-cluster crossbar under [Static]
   and one dynamic policy, each with 1- and 2-entry operand buffers and
   1-entry result buffers. With one operand entry, a master with two
   forwarded operands waits forever: the second operand needs the entry
   the first holds until the master issues, and a replay only starts the
   same group again. *)
let one_instruction_shapes () =
  let module Steering = Mcsim_cluster.Steering in
  let module Interconnect = Mcsim_cluster.Interconnect in
  let machines =
    List.map (fun p -> (2, Interconnect.Point_to_point, p)) Steering.all
    @ [ (4, Interconnect.Ring, Steering.Static);
        (4, Interconnect.Ring, Steering.Ineffectual);
        (8, Interconnect.Crossbar, Steering.Static);
        (8, Interconnect.Crossbar, Steering.Dependence) ]
  in
  (* Position [j]'s register local to cluster [k]: r(k + j·n), below
     gp (r29), sp (r30) and the zero register (r31) at n <= 8. *)
  let local n k j = Reg.int_reg (k + (j * n)) in
  let shapes n =
    let clusters = List.init n Fun.id in
    let per f = List.concat_map (fun a -> List.map (f a) clusters) clusters in
    List.concat_map (fun d -> per (fun a b -> (local n d 0, local n a 1, local n b 2))) clusters
    @ per (fun a b -> (Reg.gp, local n a 1, local n b 2))
    @ per (fun a b -> (local n a 0, Reg.gp, local n b 2))
    @ per (fun a b -> (local n a 0, local n b 1, Reg.gp))
  in
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun (n, topology, steering) ->
      List.iter
        (fun entries ->
          let cfg =
            { (Machine.config_for_clusters ~topology n) with
              Machine.steering;
              operand_buffer_entries = entries;
              result_buffer_entries = 1 }
          in
          let name =
            Printf.sprintf "%d clusters, %s, %s, %d operand entries" n
              (Interconnect.to_string topology) (Steering.to_string steering) entries
          in
          match Machine.init_state cfg with
          | exception Invalid_argument msg ->
            incr refused;
            check Alcotest.bool (name ^ ": refused with the rule") true
              (entries < 2 && (n > 2 || Steering.is_dynamic steering)
              && Str.string_match (Str.regexp ".*operand_buffer_entries must be >= 2") msg 0)
          | _ ->
            incr accepted;
            List.iter
              (fun (d, a, b) ->
                let shape =
                  Printf.sprintf "%s: r%d <- r%d, r%d" name (Reg.flat_index d)
                    (Reg.flat_index a) (Reg.flat_index b)
                in
                let trace = Trace_kit.of_list [ Trace_kit.mk Op.Int_other [ a; b ] (Some d) ] in
                let run engine =
                  try Machine.run_flat ~engine ~max_cycles:1_000 cfg trace
                  with Failure msg -> Alcotest.failf "%s: %s" shape msg
                in
                let scan = run `Scan and wake = run `Wakeup in
                if scan <> wake then Alcotest.failf "%s: %s" shape (explain_diff scan wake);
                if wake.Machine.retired <> 1 then Alcotest.failf "%s: nothing retired" shape)
              (shapes n))
        [ 1; 2 ])
    machines;
  check Alcotest.int "machines accepted" 10 !accepted;
  check Alcotest.int "machines refused" 8 !refused

(* ------------- partner parking: exact examination counts ------------ *)

(* Two hand-written waits, each behind [k] chained long-latency
   instructions in cluster [src], so the waiting copy's wait grows with
   [k]. Registers are placed by index modulo the cluster count. *)

(* [k] dependent 16-cycle divides, whose result a slave in [src]
   forwards to a master in [dst] (scenario 2): the master waits for its
   partner, not for a register of its own. *)
let divide_feeds_master ~clusters ~src ~dst k =
  let f = Reg.fp_reg in
  Trace_kit.of_list
    (List.init k (fun i ->
         Trace_kit.mk ~pc:i (Op.Fp_divide { bits64 = true }) [ f src; f (src + clusters) ]
           (Some (f src)))
    @ [ Trace_kit.mk ~pc:k Op.Fp_other [ f src; f (dst + clusters) ] (Some (f dst)) ])

(* [k] dependent cold loads in [src], whose consumer's master in [src]
   sends its result to a slave in [dst] (scenario 3): the slave has no
   source of its own and waits only for its master. *)
let miss_feeds_slave ~clusters ~src ~dst k =
  let r = Reg.int_reg in
  Trace_kit.of_list
    (List.init k (fun i ->
         Trace_kit.mk ~pc:i ~mem_addr:(4096 * (i + 1)) Op.Load [ r src ] (Some (r src)))
    @ [ Trace_kit.mk ~pc:k Op.Int_other [ r src; r (src + clusters) ] (Some (r dst)) ])

let stage_index prof name =
  List.find
    (fun i -> Profile_counters.stage_name prof i = name)
    (List.init (Profile_counters.n_stages prof) Fun.id)

let issue_work engine cfg trace =
  let prof = Machine.profile_counters () in
  let res = Machine.run_flat ~engine ~profile:prof cfg trace in
  (res, Profile_counters.work prof (stage_index prof "issue"))

(* Minor-heap words per retired instruction of the profiled run that
   [mcsim run compress -n 200000 --profile] makes (dual machine, local
   binary, seed 1, wakeup engine); allocation is deterministic for a
   given build. Overall 6.88, about 6 of them the profiler's own float
   boxing; issue 0.64, all from the d-cache's in-flight table;
   dispatch 0.13; every other stage 0.00. A shorter run would not do: at
   30 k instructions dispatch's warm-up alone is 0.85. *)
let allocation_per_instruction () =
  let trace =
    Mcsim.Experiment.trace_of ~seed:1 ~max_instrs:200_000 (Spec92.program Spec92.Compress)
      { Mcsim.Experiment.native with scheduler = Pipeline.default_local }
  in
  let prof = Machine.profile_counters () in
  Profile_counters.alloc_start prof;
  let res = Machine.run_flat ~profile:prof (Machine.dual_cluster ()) trace in
  Profile_counters.alloc_stop prof;
  let bounded what words bound =
    let w = words /. float_of_int res.Machine.retired in
    check Alcotest.bool (Printf.sprintf "%s: %.2f words/instr <= %g" what w bound) true
      (w <= bound)
  in
  bounded "overall" (Profile_counters.minor_words prof) 10.0;
  List.iter
    (fun (stage, bound) ->
      bounded stage (Profile_counters.alloc prof (stage_index prof stage)) bound)
    [ ("fetch", 0.5); ("dispatch", 0.5); ("issue", 1.5); ("wake", 0.5); ("retire", 0.5);
      ("train", 0.5) ];
  (* A replay allocates nothing per squashed copy or group. su2cor's
     native binary on the 8-cluster crossbar under dependence steering
     replays 829 times in 20 k instructions; the whole run, unprofiled,
     allocates 10.2 words per instruction (22.3 when each squashed copy
     built a purge closure and each squashed group bumped a counter by
     name), most of it the d-cache's in-flight cells and one-time growth
     of the machine's containers. *)
  let unprofiled what n topology steering ~replays bound =
    let cfg = { (Machine.config_for_clusters ~topology n) with Machine.steering } in
    let trace =
      Mcsim.Experiment.trace_of ~seed:1 ~max_instrs:20_000 (Spec92.program Spec92.Su2cor)
        { Mcsim.Experiment.native with clusters = n }
    in
    let before = Gc.minor_words () in
    let res = Machine.run_flat cfg trace in
    let w = (Gc.minor_words () -. before) /. float_of_int res.Machine.retired in
    check Alcotest.int (what ^ ": replays") replays res.Machine.replays;
    check Alcotest.bool (Printf.sprintf "%s: %.2f words/instr <= %g" what w bound) true (w <= bound)
  in
  unprofiled "8-cluster crossbar su2cor" 8 Mcsim_cluster.Interconnect.Crossbar
    Mcsim_cluster.Steering.Dependence ~replays:829 11.0;
  (* The steered 4-cluster ring covers the steering and retire-training
     paths: su2cor's 4-cluster binary under ineffectual steering, 323
     replays in 20 k instructions, 6.4 words per instruction. *)
  unprofiled "4-cluster ring su2cor (ineffectual)" 4 Mcsim_cluster.Interconnect.Ring
    Mcsim_cluster.Steering.Ineffectual ~replays:323 7.0

(* Both engines agree on results and event streams, and the wakeup
   engine examines every copy exactly once — when it issues — however
   long the parked copy waited for its partner: [k + 2] copies (the [k]
   producers, then the master and its slave) cost [k + 2] examinations.
   An engine that kept the waiting copy on its ready list would examine
   it on every cycle of the wait. *)
let parked_partner_counts ~name ~cfg ~trace_of () =
  let cycles =
    List.map
      (fun k ->
        let trace = trace_of k in
        let what = Printf.sprintf "%s, k = %d" name k in
        let scan, _ = issue_work `Scan cfg trace in
        let wake, work = issue_work `Wakeup cfg trace in
        if scan <> wake then Alcotest.failf "%s: %s" what (explain_diff scan wake);
        check (Alcotest.list event_t) (what ^ ": event streams")
          (events_of `Scan cfg trace) (events_of `Wakeup cfg trace);
        check Alcotest.int (what ^ ": one multi-distributed group") 1
          wake.Machine.dual_distributed;
        check Alcotest.int (what ^ ": examined once per copy") (k + 2) work;
        wake.Machine.cycles)
      [ 1; 3 ]
  in
  match cycles with
  | [ short; long ] ->
    check Alcotest.bool
      (Printf.sprintf "%s: the wait grew (%d -> %d cycles)" name short long)
      true
      (long >= short + 30)
  | _ -> assert false

let dual = Machine.dual_cluster ()
let ring8 = Machine.config_for_clusters ~topology:Mcsim_cluster.Interconnect.Ring 8

let parked_master_dual =
  parked_partner_counts ~name:"dual, master behind a divide-fed slave" ~cfg:dual
    ~trace_of:(divide_feeds_master ~clusters:2 ~src:1 ~dst:0)

let parked_master_ring8 =
  parked_partner_counts ~name:"8-cluster ring, master behind a divide-fed slave" ~cfg:ring8
    ~trace_of:(divide_feeds_master ~clusters:8 ~src:1 ~dst:4)

let parked_slave_dual =
  parked_partner_counts ~name:"dual, result slave behind a missing master" ~cfg:dual
    ~trace_of:(miss_feeds_slave ~clusters:2 ~src:0 ~dst:1)

let parked_slave_ring8 =
  parked_partner_counts ~name:"8-cluster ring, result slave behind a missing master" ~cfg:ring8
    ~trace_of:(miss_feeds_slave ~clusters:8 ~src:2 ~dst:5)

(* ------------- buffer parking: exact examination counts ------------- *)

(* Two hand-written waits for a one-entry transfer buffer on the dual
   machine (even registers in cluster 0, odd in cluster 1). A cold load
   holds the entry, so the d-cache miss latency sets how long the other
   copies wait for it. *)

(* A cold load in cluster 0, then [k] instructions whose master in
   cluster 0 reads the load's result and whose slave in cluster 1
   forwards [r1] (scenario 2). The first slave takes the one operand
   entry at once, and its master frees it only after the load; the other
   slaves wait for the entry, one free at a time. *)
let slaves_share_operand_entry k =
  let r = Reg.int_reg in
  Trace_kit.of_list
    (Trace_kit.mk ~pc:0 ~mem_addr:4096 Op.Load [ r 2 ] (Some (r 2))
    :: List.init k (fun i -> Trace_kit.mk ~pc:(i + 1) Op.Int_other [ r 1; r 2 ] (Some (r 4))))

(* A cold load whose master in cluster 0 sends its result to a slave in
   cluster 1 (scenario 3), then [k] such instructions with ready sources.
   The load's result entry stays taken until its slave reads the result,
   so the [k] masters wait for the one entry in turn. *)
let masters_share_result_entry k =
  let r = Reg.int_reg in
  Trace_kit.of_list
    (Trace_kit.mk ~pc:0 ~mem_addr:4096 Op.Load [ r 2; r 4 ] (Some (r 1))
    :: List.init k (fun i -> Trace_kit.mk ~pc:(i + 1) Op.Int_other [ r 2; r 4 ] (Some (r 3))))

(* Both engines agree on results and event streams, and the wakeup
   engine's issue work is the same exact count at both miss latencies: a
   copy parked on a full buffer is examined again only when an entry of
   that buffer frees, not on every cycle of the wait. *)
let parked_buffer_counts ~name ~cfg ~trace ~work:expected () =
  let cycles =
    List.map
      (fun miss_latency ->
        let cfg =
          { cfg with
            Machine.dcache = { cfg.Machine.dcache with Mcsim_cache.Cache.miss_latency } }
        in
        let what = Printf.sprintf "%s, miss latency %d" name miss_latency in
        let scan, _ = issue_work `Scan cfg trace in
        let wake, work = issue_work `Wakeup cfg trace in
        if scan <> wake then Alcotest.failf "%s: %s" what (explain_diff scan wake);
        check (Alcotest.list event_t) (what ^ ": event streams")
          (events_of `Scan cfg trace) (events_of `Wakeup cfg trace);
        check Alcotest.int (what ^ ": no replay") 0 wake.Machine.replays;
        check Alcotest.int (what ^ ": issue work") expected work;
        wake.Machine.cycles)
      [ 16; 64 ]
  in
  match cycles with
  | [ short; long ] ->
    check Alcotest.bool
      (Printf.sprintf "%s: the wait grew (%d -> %d cycles)" name short long)
      true
      (long >= short + 40)
  | _ -> assert false

(* The load, three masters once each, and slave [j] once per free
   before its own: 1 + 3 + (1 + 2 + 3). *)
let parked_operand_slaves =
  parked_buffer_counts ~name:"three slaves, one operand entry"
    ~cfg:{ dual with Machine.operand_buffer_entries = 1 }
    ~trace:(slaves_share_operand_entry 3) ~work:10

(* The load's master and slave once each, master [j] once per free
   before its own plus once to issue, and each master's slave once:
   2 + (2 + 3) + 2. *)
let parked_result_masters =
  parked_buffer_counts ~name:"two masters, one result entry"
    ~cfg:{ dual with Machine.result_buffer_entries = 1 }
    ~trace:(masters_share_result_entry 2) ~work:9

(* On the 8-cluster ring a partner event is keyed up to four hops past
   the producer's finish, and round-robin steering on ora replays every
   few hundred instructions. Squashed copies must stay in limbo until
   every wheel entry scheduled before the squash has drained: the flush
   asserts that no pending entry still points at a limbo copy (a
   watermark of the last finish time plus one let such entries
   outlive the flush, and the assertion fires within the first few
   thousand instructions). *)
let limbo_outlives_wheel_keys () =
  let prog = Spec92.program Spec92.Ora in
  let profile = Walker.profile ~seed:1 prog in
  let c = Pipeline.compile ~clusters:8 ~profile ~scheduler:Pipeline.default_local prog in
  let trace = Walker.trace_flat ~seed:1 ~max_instrs:5_000 c.Pipeline.mach in
  let cfg = { ring8 with Machine.steering = Mcsim_cluster.Steering.Modulo } in
  let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
  check Alcotest.bool "replays happen" true (wake.Machine.replays > 0);
  assert_engines_agree ~msg:"ora, 8-cluster ring, modulo steering" cfg trace

(* --------------- the order of [blocker]'s causes -------------------- *)

(* [Machine]'s [blocker] names the first reason a copy cannot issue, in
   a fixed order, and the replay victim, the head-starvation streak and
   the wakeup engine's park read that first cause. Each trace below
   changes its outcome when two of the checks swap. Checking source
   readiness after the buffer changes nothing observable: a copy on a
   ready list has its sources, and in a stall a copy waiting on a source
   waits, through older producers, on a buffer-blocked group, or on a
   frozen one that is younger than a buffer-blocked group; the victim
   search reaches that group first. *)

(* Both engines' run of [trace] on [cfg]: the same event stream, then the
   wakeup engine's result and issue work. *)
let order_case ~what cfg trace =
  check (Alcotest.list event_t) (what ^ ": event streams") (events_of `Scan cfg trace)
    (events_of `Wakeup cfg trace);
  let scan, _ = issue_work `Scan cfg trace in
  let wake, work = issue_work `Wakeup cfg trace in
  if scan <> wake then Alcotest.failf "%s: %s" what (explain_diff scan wake);
  (wake, work)

(* A master's forwarding slaves are checked before its result buffer. On
   the 4-cluster ring (dependence steering, two operand entries and one
   result entry, replay threshold 4, so the head-starvation replay comes
   after 32 blocked cycles), #0's master in cluster 0 waits for operands
   from clusters 1 and 3 and sends its result to cluster 1. Its cluster-3
   slave waits for the operand buffer until cycle 39; by then #4's result
   holds cluster 1's one result entry (38 to 55). In the cycle the
   operand is on the wire the master's cause is its slave, so the streak
   restarts and #0 never replays; checking the result buffer first
   carries the streak across that cycle and replays #0 at cycle 49. *)
let order_slave_before_result_buffer () =
  let cfg =
    { (Machine.config_for_clusters ~topology:Mcsim_cluster.Interconnect.Ring 4) with
      Machine.steering = Mcsim_cluster.Steering.Dependence;
      operand_buffer_entries = 2;
      result_buffer_entries = 1;
      replay_threshold = 4 }
  in
  let r = Reg.int_reg in
  let trace =
    Trace_kit.of_list
      [ Trace_kit.mk ~pc:0 Op.Int_other [ r 3; r 5 ] (Some (r 1));
        Trace_kit.mk ~pc:1 ~mem_addr:147456 Op.Load [ r 2 ] (Some (r 7));
        Trace_kit.mk ~pc:2 Op.Int_other [ r 5; r 5 ] (Some (r 3));
        Trace_kit.mk ~pc:3 Op.Int_other [ r 2; r 2 ] (Some (r 2));
        Trace_kit.mk ~pc:4 ~mem_addr:126976 Op.Load [ r 5 ] (Some (r 5)) ]
  in
  let res, _ = order_case ~what:"slave before result buffer" cfg trace in
  check Alcotest.int "no replay" 0 res.Machine.replays;
  check Alcotest.int "cycles" 59 res.Machine.cycles

(* A short buffer is checked before the starvation freeze. On the
   4-cluster machine with two operand entries, each of two instructions
   has a master in cluster 3 and two slaves, in clusters 0 and 1, that
   forward one operand each. Both cluster-0 slaves take cluster 3's two
   entries and each master waits for its other operand: a wedge. The
   second replay of #0 with nothing retired in between freezes the
   younger #1. On the third try #0's slaves take both entries at cycle 42,
   and #1's slaves, short of an entry and frozen, park on the buffer until
   #0's master frees it. Naming the freeze first would keep them on the
   ready list for one more examination. *)
let order_buffer_before_freeze () =
  let cfg =
    { (Machine.config_for_clusters 4) with
      Machine.operand_buffer_entries = 2;
      result_buffer_entries = 1;
      replay_threshold = 4 }
  in
  let r = Reg.int_reg in
  let trace =
    Trace_kit.of_list
      [ Trace_kit.mk ~pc:0 Op.Int_other [ r 1; r 4 ] (Some (r 7));
        Trace_kit.mk ~pc:1 Op.Int_other [ r 5; r 4 ] (Some (r 3)) ]
  in
  let res, work = order_case ~what:"buffer before freeze" cfg trace in
  check Alcotest.int "two replays" 2 res.Machine.replays;
  check Alcotest.int "one freeze" 1 (Machine.counter res "starvation_freezes");
  check Alcotest.int "cycles" 47 res.Machine.cycles;
  check Alcotest.int "issue work" 17 work

(* ------------------------- Vec unit tests --------------------------- *)

let vec_basics () =
  let v = Vec.create () in
  check Alcotest.int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 3)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 297 (Vec.get v 99);
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check Alcotest.int "filtered length" 50 (Vec.length v);
  (* Order preserved: 0, 6, 12, ... *)
  check (Alcotest.list Alcotest.int) "filtered prefix" [ 0; 6; 12 ]
    (List.init 3 (Vec.get v));
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v)

(* The ready-list walk's in-place compaction. *)
let vec_set_remove_range () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 0; 1; 2; 3; 4; 5; 6 ];
  Vec.set v 1 10;
  Vec.remove_range v ~pos:2 ~len:3;
  check (Alcotest.list Alcotest.int) "range gone, tail slid down" [ 0; 10; 5; 6 ]
    (List.init (Vec.length v) (Vec.get v));
  Vec.remove_range v ~pos:4 ~len:0;
  Vec.remove_range v ~pos:1 ~len:3;
  check (Alcotest.list Alcotest.int) "truncated" [ 0 ] (List.init (Vec.length v) (Vec.get v));
  check Alcotest.bool "out-of-range rejected" true
    (try
       Vec.remove_range v ~pos:1 ~len:1;
       false
     with Invalid_argument _ -> true)

let vec_sort () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 5; 1; 4; 1; 3; 9; 2 ];
  Vec.sort ~cmp:compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (List.init (Vec.length v) (Vec.get v))

(* --------------------- Bucket_queue unit tests ---------------------- *)

(* Whether the wheel holds [x] (any key). *)
let pending q x = Bucket_queue.exists q (fun y -> y = x)

(* Whether [add] accepts [key]: the floor is the smallest key it does.
   An accepted entry stays pending. *)
let accepts q ~key x =
  match Bucket_queue.add q ~key x with () -> true | exception Invalid_argument _ -> false

let wheel_ordering () =
  let q = Bucket_queue.create ~capacity:8 () in
  List.iter (fun (k, x) -> Bucket_queue.add q ~key:k x) [ (5, 50); (1, 10); (3, 30) ];
  check Alcotest.bool "all three pending" true (List.for_all (pending q) [ 10; 30; 50 ]);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:10 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "key order" [ 10; 30; 50 ] (List.rev !out);
  check Alcotest.bool "drained" false (Bucket_queue.exists q (fun _ -> true));
  check Alcotest.bool "floor advanced past 10" false (accepts q ~key:10 99);
  check Alcotest.bool "floor advanced to 11" true (accepts q ~key:11 99)

let wheel_same_cycle_batch () =
  let q = Bucket_queue.create ~capacity:4 () in
  List.iter (fun x -> Bucket_queue.add q ~key:2 x) [ 10; 11; 12 ];
  Bucket_queue.add q ~key:1 0;
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:2 (fun x -> out := x :: !out);
  (* Same-key entries come out in insertion order. *)
  check (Alcotest.list Alcotest.int) "batch order" [ 0; 10; 11; 12 ] (List.rev !out)

let wheel_wraparound () =
  let q = Bucket_queue.create ~capacity:4 () in
  (* Fill one revolution, drain it, then schedule past the ring seam:
     slot reuse must not resurface drained entries or misorder keys. *)
  List.iter (fun k -> Bucket_queue.add q ~key:k k) [ 0; 1; 2; 3 ];
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:3 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "first revolution" [ 0; 1; 2; 3 ] (List.rev !out);
  List.iter (fun k -> Bucket_queue.add q ~key:k k) [ 7; 5; 6; 4 ];
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:7 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "second revolution" [ 4; 5; 6; 7 ] (List.rev !out)

let wheel_grow () =
  let q = Bucket_queue.create ~capacity:4 () in
  Bucket_queue.add q ~key:2 2;
  (* A key more than one revolution ahead forces the ring to grow while
     entries are pending. *)
  Bucket_queue.add q ~key:100 100;
  check Alcotest.bool "both pending" true (pending q 2 && pending q 100);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:200 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "grow preserves order" [ 2; 100 ] (List.rev !out)

let wheel_add_during_drain () =
  let q = Bucket_queue.create ~capacity:8 () in
  Bucket_queue.add q ~key:1 1;
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:3 (fun x ->
      out := x :: !out;
      (* Scheduling follow-up events above the drain bound is legal and
         they surface on the next drain. *)
      if x = 1 then Bucket_queue.add q ~key:5 50);
  check (Alcotest.list Alcotest.int) "first drain" [ 1 ] (List.rev !out);
  check Alcotest.bool "follow-up pending" true (pending q 50);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:5 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "second drain" [ 50 ] (List.rev !out)

let wheel_floor_discipline () =
  let q = Bucket_queue.create ~capacity:4 () in
  (* Empty drain jumps the floor without touching buckets. *)
  Bucket_queue.drain_upto q ~key:41 (fun _ -> assert false);
  check Alcotest.bool "floor after empty drain: 41 refused" false (accepts q ~key:41 0);
  check Alcotest.bool "floor after empty drain: 42 taken" true (accepts q ~key:42 0);
  (* Adding below the floor is a scheduling bug and must be loud. *)
  check Alcotest.bool "below-floor add rejected" true
    (try
       Bucket_queue.add q ~key:7 0;
       false
     with Invalid_argument _ -> true)

let suite =
  ( "engine",
    [ Kit.qcheck equiv_dual_unified;
      Kit.qcheck equiv_dual_split;
      Kit.qcheck equiv_starved_buffers;
      Kit.qcheck equiv_tiny_queues;
      Kit.qcheck equiv_quad_ring;
      Kit.qcheck equiv_octa_ring;
      Kit.qcheck equiv_octa_xbar;
      case "scan = wakeup on all stock configs, both queue splits" equiv_stock_configs;
      case "scan = wakeup on all six benchmarks" equiv_benchmarks;
      case "scan = wakeup event streams" equiv_event_stream;
      case "scan = wakeup under sampled simulation" equiv_sampled;
      case "scan = wakeup and pinned estimates, sampled, steer-sampled machines"
        equiv_sampled_steered;
      Kit.qcheck equiv_pooled_stock;
      case "pools reach a fixed point (steady state)" pool_fixed_point_steady;
      case "pools reach a fixed point under replays (squash recycling)" pool_fixed_point_squash;
      case "running waiting totals agree with queue rescan" waiting_totals_cross_check;
      case "every one-instruction shape retires, or the machine is refused"
        one_instruction_shapes;
      case "allocation per instruction, by stage (compress, 200 k)" allocation_per_instruction;
      case "parked master examined once per copy (dual)" parked_master_dual;
      case "parked master examined once per copy (8-cluster ring)" parked_master_ring8;
      case "parked result slave examined once per copy (dual)" parked_slave_dual;
      case "parked result slave examined once per copy (8-cluster ring)" parked_slave_ring8;
      case "slaves parked on a full operand buffer: exact count" parked_operand_slaves;
      case "masters parked on a full result buffer: exact count" parked_result_masters;
      case "limbo outlives every wheel key (ora, 8-cluster ring)" limbo_outlives_wheel_keys;
      case "blocker order: a master's slaves before its result buffer"
        order_slave_before_result_buffer;
      case "blocker order: a short buffer before the freeze" order_buffer_before_freeze;
      case "Vec: push/get/filter/clear" vec_basics;
      case "Vec: set and remove_range" vec_set_remove_range;
      case "Vec: insertion sort" vec_sort;
      case "Bucket_queue: key ordering" wheel_ordering;
      case "Bucket_queue: same-cycle batching" wheel_same_cycle_batch;
      case "Bucket_queue: ring wraparound" wheel_wraparound;
      case "Bucket_queue: grow with pending entries" wheel_grow;
      case "Bucket_queue: add during drain" wheel_add_during_drain;
      case "Bucket_queue: floor discipline" wheel_floor_discipline ] )
