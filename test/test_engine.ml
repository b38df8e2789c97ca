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
module Vec = Mcsim_util.Vec
module Bucket_queue = Mcsim_util.Bucket_queue
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
   double-freeing (Slab.free raises on a double free). *)
let pool_fixed_point_squash =
  pool_fixed_point
    ~cfg:
      { (Machine.dual_cluster ()) with
        Machine.operand_buffer_entries = 1;
        result_buffer_entries = 1;
        replay_threshold = 4 }
    ~seed:17

(* Snapshots every cycle cross-check the running cluster waiting totals
   against a full queue rescan (an assert inside the snapshot), through
   dispatch, issue, squash and replay, on both engines. *)
let waiting_totals_cross_check () =
  let trace = Test_audit.trace_of 23 Pipeline.default_local in
  let cfg =
    { (Machine.dual_cluster ()) with
      Machine.operand_buffer_entries = 2;
      result_buffer_entries = 2;
      replay_threshold = 4 }
  in
  List.iter
    (fun engine ->
      let snaps = ref 0 in
      let (_ : Machine.result) =
        Machine.run_flat ~engine ~on_occupancy:(fun _ -> incr snaps) ~occupancy_period:1 cfg
          trace
      in
      check Alcotest.bool "snapshots taken" true (!snaps > 0))
    [ `Scan; `Wakeup ]

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

let issue_work engine cfg trace =
  let prof = Machine.profile_counters () in
  let res = Machine.run_flat ~engine ~profile:prof cfg trace in
  let stage =
    List.find
      (fun i -> Profile_counters.stage_name prof i = "issue")
      (List.init (Profile_counters.n_stages prof) Fun.id)
  in
  (res, Profile_counters.work prof stage)

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

let wheel_ordering () =
  let q = Bucket_queue.create ~capacity:8 () in
  List.iter (fun (k, x) -> Bucket_queue.add q ~key:k x) [ (5, "e"); (1, "a"); (3, "c") ];
  check Alcotest.int "length" 3 (Bucket_queue.length q);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:10 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.string) "key order" [ "a"; "c"; "e" ] (List.rev !out);
  check Alcotest.bool "drained" true (Bucket_queue.is_empty q);
  check Alcotest.int "floor advanced" 11 (Bucket_queue.floor q)

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
  Bucket_queue.add q ~key:2 "near";
  (* A key more than one revolution ahead forces the ring to grow while
     entries are pending. *)
  Bucket_queue.add q ~key:100 "far";
  check Alcotest.int "both pending" 2 (Bucket_queue.length q);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:200 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.string) "grow preserves order" [ "near"; "far" ] (List.rev !out)

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
  check Alcotest.int "follow-up pending" 1 (Bucket_queue.length q);
  let out = ref [] in
  Bucket_queue.drain_upto q ~key:5 (fun x -> out := x :: !out);
  check (Alcotest.list Alcotest.int) "second drain" [ 50 ] (List.rev !out)

let wheel_floor_discipline () =
  let q = Bucket_queue.create ~capacity:4 () in
  (* Empty drain jumps the floor without touching buckets. *)
  Bucket_queue.drain_upto q ~key:41 (fun _ -> assert false);
  check Alcotest.int "floor after empty drain" 42 (Bucket_queue.floor q);
  (* Adding below the floor is a scheduling bug and must be loud. *)
  check Alcotest.bool "below-floor add rejected" true
    (try
       Bucket_queue.add q ~key:7 ();
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
      Kit.qcheck equiv_pooled_stock;
      case "pools reach a fixed point (steady state)" pool_fixed_point_steady;
      case "pools reach a fixed point under replays (squash recycling)" pool_fixed_point_squash;
      case "running waiting totals agree with queue rescan" waiting_totals_cross_check;
      case "parked master examined once per copy (dual)" parked_master_dual;
      case "parked master examined once per copy (8-cluster ring)" parked_master_ring8;
      case "parked result slave examined once per copy (dual)" parked_slave_dual;
      case "parked result slave examined once per copy (8-cluster ring)" parked_slave_ring8;
      case "limbo outlives every wheel key (ora, 8-cluster ring)" limbo_outlives_wheel_keys;
      case "Vec: push/get/filter/clear" vec_basics;
      case "Vec: set and remove_range" vec_set_remove_range;
      case "Vec: insertion sort" vec_sort;
      case "Bucket_queue: key ordering" wheel_ordering;
      case "Bucket_queue: same-cycle batching" wheel_same_cycle_batch;
      case "Bucket_queue: ring wraparound" wheel_wraparound;
      case "Bucket_queue: grow with pending entries" wheel_grow;
      case "Bucket_queue: add during drain" wheel_add_during_drain;
      case "Bucket_queue: floor discipline" wheel_floor_discipline ] )
