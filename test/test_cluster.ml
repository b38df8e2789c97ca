(* Tests for Mcsim_cluster: register-to-cluster assignment, instruction
   distribution, transfer buffers, and the machine model itself. *)

module Assignment = Mcsim_cluster.Assignment
module Distribution = Mcsim_cluster.Distribution
module Transfer_buffer = Mcsim_cluster.Machine.Transfer_buffer
module Machine = Mcsim_cluster.Machine
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class
module Instr = Mcsim_isa.Instr

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let dual_asg = Assignment.create ~num_clusters:2 ()

(* -------------------------- assignment ----------------------------- *)

let asg_even_odd () =
  check Alcotest.bool "r4 local to 0" true
    (Assignment.placement dual_asg (Reg.int_reg 4) = Assignment.Local 0);
  check Alcotest.bool "f7 local to 1" true
    (Assignment.placement dual_asg (Reg.fp_reg 7) = Assignment.Local 1);
  check Alcotest.bool "sp global" true (Assignment.placement dual_asg Reg.sp = Assignment.Global);
  check Alcotest.bool "gp global" true (Assignment.placement dual_asg Reg.gp = Assignment.Global);
  check Alcotest.bool "zero reported global" true
    (Assignment.placement dual_asg Reg.zero_int = Assignment.Global)

let asg_clusters_of () =
  check Alcotest.(list int) "local" [ 0 ] (Assignment.clusters_of dual_asg (Reg.int_reg 2));
  check Alcotest.(list int) "global" [ 0; 1 ] (Assignment.clusters_of dual_asg Reg.sp);
  check Alcotest.bool "readable_in local" true
    (Assignment.readable_in dual_asg (Reg.int_reg 2) 0);
  check Alcotest.bool "not readable elsewhere" false
    (Assignment.readable_in dual_asg (Reg.int_reg 2) 1)

let asg_locals_globals () =
  let locals0 = Assignment.locals_of dual_asg 0 in
  (* Even int regs 0..28 (15 of them) + even fp regs 0..30 (16). *)
  check Alcotest.int "cluster 0 locals" 31 (List.length locals0);
  check Alcotest.int "globals" 2 (List.length (Assignment.globals dual_asg));
  check Alcotest.bool "sp among globals" true
    (List.exists (Reg.equal Reg.sp) (Assignment.globals dual_asg))

let asg_single () =
  check Alcotest.int "single has one cluster" 1 (Assignment.num_clusters Assignment.single);
  List.iter
    (fun r ->
      if not (Reg.is_zero r) then
        check Alcotest.bool "everything local to 0" true
          (Assignment.placement Assignment.single r = Assignment.Local 0))
    Reg.all

let asg_custom_validation () =
  Alcotest.check_raises "out-of-range cluster"
    (Invalid_argument "Assignment: Local cluster out of range") (fun () ->
      ignore (Assignment.custom ~num_clusters:2 (fun _ -> Assignment.Local 5)));
  Alcotest.check_raises "zero clusters" (Invalid_argument "Assignment: num_clusters < 1")
    (fun () -> ignore (Assignment.create ~num_clusters:0 ()))

(* ------------------------- distribution ---------------------------- *)

let plan i = Distribution.plan dual_asg i
let r = Reg.int_reg

let dist_scenario1 () =
  let p = plan (Instr.make ~op:Op.Int_other ~srcs:[ r 2; r 4 ] ~dst:(Some (r 6))) in
  check Alcotest.int "scenario 1" 1 (Distribution.scenario p);
  match p with
  | Distribution.Single { cluster } -> check Alcotest.int "cluster 0" 0 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let dist_scenario2 () =
  let p = plan (Instr.make ~op:Op.Int_other ~srcs:[ r 4; r 1 ] ~dst:(Some (r 2))) in
  check Alcotest.int "scenario 2" 2 (Distribution.scenario p);
  match p with
  | Distribution.Multi { master; slaves = [ sl ]; master_writes_reg } ->
    check Alcotest.int "master has the majority" 0 master;
    check Alcotest.int "slave other side" 1 sl.Distribution.s_cluster;
    check Alcotest.(list string) "r1 forwarded" [ "r1" ]
      (List.map Reg.to_string sl.Distribution.s_forward_srcs);
    check Alcotest.bool "master writes" true master_writes_reg;
    check Alcotest.bool "no result forward" false sl.Distribution.s_receives_result
  | Distribution.Multi _ | Distribution.Single _ -> Alcotest.fail "expected one slave"

let dist_scenario3 () =
  let p = plan (Instr.make ~op:Op.Int_other ~srcs:[ r 0; r 2 ] ~dst:(Some (r 1))) in
  check Alcotest.int "scenario 3" 3 (Distribution.scenario p);
  match p with
  | Distribution.Multi { master; slaves = [ sl ]; master_writes_reg } ->
    check Alcotest.int "master where the sources live" 0 master;
    check Alcotest.bool "slave writes" true sl.Distribution.s_receives_result;
    check Alcotest.bool "master does not write" false master_writes_reg;
    check Alcotest.(list string) "nothing forwarded" []
      (List.map Reg.to_string sl.Distribution.s_forward_srcs)
  | Distribution.Multi _ | Distribution.Single _ -> Alcotest.fail "expected one slave"

let dist_scenario4 () =
  let p = plan (Instr.make ~op:Op.Int_other ~srcs:[ r 0; r 2 ] ~dst:(Some Reg.sp)) in
  check Alcotest.int "scenario 4" 4 (Distribution.scenario p);
  match p with
  | Distribution.Multi { master_writes_reg; slaves = [ sl ]; _ } ->
    check Alcotest.bool "both write the global" true
      (master_writes_reg && sl.Distribution.s_receives_result);
    check Alcotest.(list string) "nothing forwarded" []
      (List.map Reg.to_string sl.Distribution.s_forward_srcs)
  | Distribution.Multi _ | Distribution.Single _ -> Alcotest.fail "expected one slave"

let dist_scenario5 () =
  let p = plan (Instr.make ~op:Op.Int_other ~srcs:[ r 2; r 1 ] ~dst:(Some Reg.gp)) in
  check Alcotest.int "scenario 5" 5 (Distribution.scenario p);
  match p with
  | Distribution.Multi { slaves = [ sl ]; _ } ->
    check Alcotest.bool "operand forwarded" true (sl.Distribution.s_forward_srcs <> []);
    check Alcotest.bool "result forwarded" true sl.Distribution.s_receives_result
  | Distribution.Multi _ | Distribution.Single _ -> Alcotest.fail "expected one slave"

let dist_all_odd_single_c1 () =
  match plan (Instr.make ~op:Op.Int_other ~srcs:[ r 1; r 3 ] ~dst:(Some (r 5))) with
  | Distribution.Single { cluster } -> check Alcotest.int "cluster 1" 1 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let dist_store_split () =
  (* Store data on one cluster, address base on the other: dual with an
     operand forward and no destination. *)
  match plan (Instr.make ~op:Op.Store ~srcs:[ r 2; r 1 ] ~dst:None) with
  | Distribution.Multi { slaves = [ sl ]; master_writes_reg; _ } ->
    check Alcotest.bool "forwarded" true (sl.Distribution.s_forward_srcs <> []);
    check Alcotest.bool "no writes" true
      ((not master_writes_reg) && not sl.Distribution.s_receives_result)
  | Distribution.Multi _ | Distribution.Single _ -> Alcotest.fail "expected one slave"

let dist_zero_regs_ignored () =
  match plan (Instr.make ~op:Op.Int_other ~srcs:[ Reg.zero_int; r 2 ] ~dst:(Some (r 4))) with
  | Distribution.Single { cluster } -> check Alcotest.int "zeros do not pin" 0 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let dist_zero_dst_is_no_dst () =
  match plan (Instr.make ~op:Op.Int_other ~srcs:[ r 2 ] ~dst:(Some Reg.zero_int)) with
  | Distribution.Single { cluster } -> check Alcotest.int "src cluster" 0 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let dist_global_only_prefers () =
  let i = Instr.make ~op:Op.Store ~srcs:[ Reg.sp; Reg.gp ] ~dst:None in
  (match Distribution.plan dual_asg ~prefer:1 i with
  | Distribution.Single { cluster } -> check Alcotest.int "prefer wins ties" 1 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single");
  match Distribution.plan dual_asg ~prefer:0 i with
  | Distribution.Single { cluster } -> check Alcotest.int "prefer 0" 0 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let dist_single_machine_always_single () =
  let i = Instr.make ~op:Op.Int_other ~srcs:[ r 1; r 2 ] ~dst:(Some (r 3)) in
  match Distribution.plan Assignment.single i with
  | Distribution.Single { cluster } -> check Alcotest.int "cluster 0" 0 cluster
  | Distribution.Multi _ -> Alcotest.fail "expected single"

let arb_instr =
  let open QCheck.Gen in
  let reg = map Reg.int_reg (int_bound 31) in
  let gen =
    let* nsrc = int_bound 2 in
    let* srcs = list_repeat nsrc reg in
    let* dst = opt reg in
    let op = match dst with Some _ -> Op.Int_other | None -> Op.Control in
    let dst = match op with Op.Control -> None | _ -> dst in
    return (Instr.make ~op ~srcs ~dst)
  in
  QCheck.make gen

let dist_plan_invariants =
  QCheck.Test.make ~name:"distribution plans are well-formed" ~count:500 arb_instr
    (fun i ->
      match plan i with
      | Distribution.Single { cluster } ->
        (cluster = 0 || cluster = 1)
        && List.for_all
             (fun s -> Reg.is_zero s || Assignment.readable_in dual_asg s cluster)
             i.Instr.srcs
      | Distribution.Multi { master; slaves; _ } ->
        slaves <> []
        && List.for_all
             (fun sl ->
               sl.Distribution.s_cluster <> master
               && List.for_all
                    (fun f -> List.exists (Reg.equal f) i.Instr.srcs)
                    sl.Distribution.s_forward_srcs
               && List.for_all
                    (fun f -> not (Assignment.readable_in dual_asg f master))
                    sl.Distribution.s_forward_srcs)
             slaves
        && Distribution.scenario (plan i) >= 2
        && Distribution.scenario (plan i) <= 5)

(* ------------------------ transfer buffer -------------------------- *)

let tb_alloc_free () =
  let t = Transfer_buffer.create ~entries:2 in
  check Alcotest.int "2 available" 2 (Transfer_buffer.available t ~cycle:0);
  let a = Transfer_buffer.alloc t ~cycle:0 in
  let b = Transfer_buffer.alloc t ~cycle:0 in
  check Alcotest.int "full" 0 (Transfer_buffer.available t ~cycle:0);
  Alcotest.check_raises "alloc when full" (Invalid_argument "Transfer_buffer.alloc: full")
    (fun () -> ignore (Transfer_buffer.alloc t ~cycle:0));
  Transfer_buffer.free t ~cycle:5 a;
  check Alcotest.int "not reusable same cycle" 0 (Transfer_buffer.available t ~cycle:5);
  check Alcotest.int "reusable next cycle" 1 (Transfer_buffer.available t ~cycle:6);
  Transfer_buffer.free t ~cycle:6 b;
  check Alcotest.int "high water" 2 (Transfer_buffer.high_water t)

let tb_errors () =
  let t = Transfer_buffer.create ~entries:1 in
  Alcotest.check_raises "free unused" (Invalid_argument "Transfer_buffer.free: not in use")
    (fun () -> Transfer_buffer.free t ~cycle:0 0);
  Alcotest.check_raises "free bad id" (Invalid_argument "Transfer_buffer.free: bad entry")
    (fun () -> Transfer_buffer.free t ~cycle:0 5)

(* Random alloc, free and query steps, each at the cycle of the one
   before or one later, as the machine makes them: after every step the
   O(1) room equals the entry-by-entry scan at the current cycle and the
   next, and the running in-use count equals the entries held, within
   capacity. A step is (kind, advance, pick): kind 0 allocates when there
   is room, 1 frees the [pick]-th held entry, 2 only queries; advance 0
   moves to the next cycle first. *)
let tb_room_matches_scan =
  QCheck.Test.make ~name:"transfer buffer: O(1) room equals the entry scan" ~count:300
    QCheck.(pair (int_range 1 8) (list (triple (int_bound 2) (int_bound 2) small_nat)))
    (fun (entries, steps) ->
      let t = Transfer_buffer.create ~entries in
      let held = ref [] and cycle = ref 0 in
      List.for_all
        (fun (kind, advance, pick) ->
          if advance = 0 then incr cycle;
          (match (kind, !held) with
          | 0, _ when Transfer_buffer.available t ~cycle:!cycle > 0 ->
            held := Transfer_buffer.alloc t ~cycle:!cycle :: !held
          | 1, _ :: _ ->
            let e = List.nth !held (pick mod List.length !held) in
            Transfer_buffer.free t ~cycle:!cycle e;
            held := List.filter (( <> ) e) !held
          | _ -> ());
          let room c =
            Transfer_buffer.available t ~cycle:c = Transfer_buffer.available_by_scan t ~cycle:c
          in
          let n = List.length !held in
          room !cycle
          && room (!cycle + 1)
          && n <= entries
          && Transfer_buffer.entries t - Transfer_buffer.available_by_scan t ~cycle:max_int = n)
        steps)

(* ---------------------------- machine ------------------------------ *)

let mk = Trace_kit.mk

(* The microbenchmarks pin every instruction into one i-cache line so the
   measured latencies are not dominated by cold instruction fetches. *)
let indep n =
  Trace_kit.init n (fun i -> mk ~pc:(i mod 8) Op.Int_other [] (Some (r (i mod 8 * 2))))

let chain n =
  Trace_kit.init n (fun i ->
      mk ~pc:(i mod 8) Op.Int_other (if i = 0 then [] else [ r 2 ]) (Some (r 2)))

let run_single = Machine.run_flat (Machine.single_cluster ())
let run_dual = Machine.run_flat (Machine.dual_cluster ())

let m_empty_trace () =
  let res = run_single (Trace_kit.of_list []) in
  check Alcotest.int "no cycles" 0 res.Machine.cycles;
  check Alcotest.int "nothing retired" 0 res.Machine.retired

let m_single_instruction () =
  let res = run_single (indep 1) in
  check Alcotest.int "one retired" 1 res.Machine.retired;
  check Alcotest.bool "a few cycles" true (res.Machine.cycles > 0 && res.Machine.cycles < 40)

let m_all_retired () =
  let res = run_single (indep 500) in
  check Alcotest.int "all retired" 500 res.Machine.retired;
  let res2 = run_dual (indep 500) in
  check Alcotest.int "dual retires all too" 500 res2.Machine.retired

let m_serial_chain_rate () =
  (* A dependent 1-cycle chain issues one instruction per cycle. *)
  let n = 400 in
  let res = run_single (chain n) in
  check Alcotest.bool
    (Printf.sprintf "chain of %d takes about %d cycles (got %d)" n n res.Machine.cycles)
    true
    (res.Machine.cycles >= n && res.Machine.cycles < n + 40)

let m_parallel_throughput () =
  (* Independent adds sustain close to the 8-wide issue limit. *)
  let n = 800 in
  let res = run_single (indep n) in
  check Alcotest.bool (Printf.sprintf "IPC near 8 (cycles=%d)" res.Machine.cycles) true
    (res.Machine.cycles < (n / 8) + 60)

let m_multiply_latency () =
  let n = 50 in
  let trace =
    Trace_kit.init n (fun i ->
        mk ~pc:(i mod 8) Op.Int_multiply (if i = 0 then [] else [ r 2 ]) (Some (r 2)))
  in
  let res = run_single trace in
  (* 6-cycle latency per link in the chain. *)
  check Alcotest.bool (Printf.sprintf "6 cycles per multiply (got %d)" res.Machine.cycles)
    true
    (res.Machine.cycles >= 6 * (n - 1) && res.Machine.cycles < (6 * n) + 60)

let m_load_miss_latency () =
  (* Two dependent cold loads: each pays the 16-cycle memory latency. *)
  let trace =
    Trace_kit.of_list
      [ mk ~pc:0 ~mem_addr:0 Op.Load [ Reg.sp ] (Some (r 2));
        mk ~pc:1 ~mem_addr:4096 Op.Load [ r 2 ] (Some (r 4));
        mk ~pc:2 Op.Int_other [ r 4 ] (Some (r 6)) ]
  in
  let res = run_single trace in
  check Alcotest.bool (Printf.sprintf "two serial misses (got %d)" res.Machine.cycles) true
    (res.Machine.cycles > 34)

let m_mispredict_redirect () =
  (* A branch whose direction alternates every time with a cold predictor
     must cause some mispredicted fetches and fetch stalls. *)
  let n = 300 in
  let trace =
    Trace_kit.init n (fun i ->
        if i mod 3 = 2 then
          mk ~pc:(i mod 30) Op.Control [ r 2 ]
            ~branch:{ Instr.conditional = true; taken = i mod 2 = 0; target = 0 }
            None
        else mk ~pc:(i mod 30) Op.Int_other [] (Some (r (2 * (i mod 5)))))
  in
  let res = run_single trace in
  check Alcotest.bool "mispredictions occurred" true
    (Machine.counter res "mispredicted_fetches" > 0);
  check Alcotest.bool "fetch stalled" true (Machine.counter res "fetch_stall_cycles" > 0);
  check Alcotest.int "all retired regardless" n res.Machine.retired

let m_biased_branch_learned () =
  let n = 600 in
  let trace =
    Trace_kit.init n (fun i ->
        if i mod 3 = 2 then
          mk ~pc:(i mod 30) Op.Control [ r 2 ]
            ~branch:{ Instr.conditional = true; taken = true; target = 0 }
            None
        else mk ~pc:(i mod 30) Op.Int_other [] (Some (r (2 * (i mod 5)))))
  in
  let res = run_single trace in
  check Alcotest.bool
    (Printf.sprintf "accuracy high (%.3f)" res.Machine.branch_accuracy)
    true
    (res.Machine.branch_accuracy > 0.9)

let m_retire_in_order_and_width () =
  let retires = Hashtbl.create 64 in
  let last_seq = ref (-1) in
  let ok_order = ref true in
  let on_event = function
    | Machine.Ev_retire { cycle; seq } ->
      if seq <= !last_seq then ok_order := false;
      last_seq := seq;
      Hashtbl.replace retires cycle (1 + Option.value ~default:0 (Hashtbl.find_opt retires cycle))
    | _ -> ()
  in
  ignore (Machine.run_flat ~on_event (Machine.single_cluster ()) (indep 300));
  check Alcotest.bool "retired in program order" true !ok_order;
  Hashtbl.iter
    (fun _ n -> if n > 8 then Alcotest.failf "retired %d in one cycle" n)
    retires

let m_dual_as_single_equivalent () =
  (* A dual-machine configuration with every register on cluster 0 and the
     single-cluster resources is the single-cluster machine. *)
  let cfg =
    { (Machine.dual_cluster ()) with
      Machine.assignment = Assignment.single;
      dq_entries = 128;
      phys_per_bank = 128;
      issue_limits = Mcsim_isa.Issue_rules.single_cluster }
  in
  let trace = chain 300 in
  let a = Machine.run_flat cfg trace in
  let b = run_single trace in
  check Alcotest.int "same cycle count" b.Machine.cycles a.Machine.cycles;
  check Alcotest.int "no dual distribution" 0 a.Machine.dual_distributed

let m_distribution_counters () =
  let trace =
    Trace_kit.of_list
      [ mk ~pc:0 Op.Int_other [] (Some (r 2));
        mk ~pc:1 Op.Int_other [] (Some (r 1));
        (* single: all on cluster 0 *)
        mk ~pc:2 Op.Int_other [ r 2; r 2 ] (Some (r 4));
        (* dual, scenario 2: r1 forwarded *)
        mk ~pc:3 Op.Int_other [ r 2; r 1 ] (Some (r 6));
        (* dual, scenario 4: global destination *)
        mk ~pc:4 Op.Int_other [ r 2; r 4 ] (Some Reg.sp) ]
  in
  let res = run_dual trace in
  check Alcotest.int "three single" 3 res.Machine.single_distributed;
  check Alcotest.int "two dual" 2 res.Machine.dual_distributed;
  check Alcotest.int "scenario 2 count" 1 (Machine.counter res "scenario_2");
  check Alcotest.int "scenario 4 count" 1 (Machine.counter res "scenario_4");
  check Alcotest.int "slave issues" 2 (Machine.counter res "slave_issues")

let m_replay_under_tiny_buffers () =
  (* Starve the operand buffers: chains that keep crossing clusters with a
     single operand entry per cluster. The machine must replay rather
     than deadlock, and still retire everything. *)
  let n = 400 in
  let trace =
    Trace_kit.init n (fun i ->
        (* alternate destinations across clusters so every instruction
           forwards its source from the other side *)
        let dst = if i mod 2 = 0 then r 2 else r 1 in
        let src = if i = 0 then [] else [ (if i mod 2 = 0 then r 1 else r 2) ] in
        mk ~pc:(i mod 8) Op.Int_other src (Some dst))
  in
  let cfg =
    { (Machine.dual_cluster ()) with
      Machine.operand_buffer_entries = 1;
      result_buffer_entries = 1 }
  in
  let res = Machine.run_flat cfg trace in
  check Alcotest.int "all retired despite pressure" n res.Machine.retired

let m_zero_dst_never_stalls_phys () =
  let n = 500 in
  let trace =
    Trace_kit.init n (fun i -> mk ~pc:(i mod 8) Op.Int_other [] (Some Reg.zero_int))
  in
  let res = run_single trace in
  check Alcotest.int "no phys stalls" 0 (Machine.counter res "stall_phys");
  check Alcotest.int "all retired" n res.Machine.retired

let m_split_queues_run () =
  let cfg = { (Machine.dual_cluster ()) with Machine.queue_split = Machine.Per_class } in
  let n = 400 in
  let trace =
    Trace_kit.init n (fun i ->
        match i mod 3 with
        | 0 -> mk ~pc:(i mod 8) Op.Int_other [] (Some (r 2))
        | 1 ->
          mk ~pc:(i mod 8) Op.Load [ Reg.sp ] (Some (r 4)) ~mem_addr:(8 * (i mod 64))
        | _ ->
          mk ~pc:(i mod 8) Op.Fp_other [] (Some (Reg.fp_reg 2)))
  in
  let res = Machine.run_flat cfg trace in
  check Alcotest.int "all retired with split queues" n res.Machine.retired

let m_split_queue_fragmentation () =
  (* An all-fp burst fills the small fp queue of a Per_class machine and
     stalls dispatch; the unified machine absorbs it. *)
  let trace =
    Trace_kit.init 400 (fun i ->
        mk ~pc:(i mod 8) Op.Fp_other [ Reg.fp_reg 0 ] (Some (Reg.fp_reg 0)))
  in
  let unified = Machine.run_flat (Machine.dual_cluster ()) trace in
  let split =
    Machine.run_flat { (Machine.dual_cluster ()) with Machine.queue_split = Machine.Per_class }
      trace
  in
  check Alcotest.int "both retire" unified.Machine.retired split.Machine.retired;
  check Alcotest.bool "split machine cannot be faster here" true
    (split.Machine.cycles >= unified.Machine.cycles)

let m_determinism () =
  let trace = indep 400 in
  let a = run_dual trace and b = run_dual trace in
  check Alcotest.int "same cycles" a.Machine.cycles b.Machine.cycles;
  check Alcotest.(list (pair string int)) "same counters" a.Machine.counters b.Machine.counters

let m_validate_config () =
  let bad f =
    try
      Machine.validate_config (f (Machine.dual_cluster ()));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "dq 0" true (bad (fun c -> { c with Machine.dq_entries = 0 }));
  check Alcotest.bool "phys 16" true (bad (fun c -> { c with Machine.phys_per_bank = 16 }));
  check Alcotest.bool "buffer 0" true
    (bad (fun c -> { c with Machine.operand_buffer_entries = 0 }));
  check Alcotest.bool "default ok" true
    (try Machine.validate_config (Machine.dual_cluster ()); true
     with Invalid_argument _ -> false)

(* The machine rule against the six stock machines, written out: (width,
   clusters) -> dispatch queue, registers per bank, fetch = dispatch width,
   retire width, per-cluster issue total, buffer entries. *)
let m_rule_stock_machines () =
  List.iter
    (fun ((width, n), (dq, phys, fetch, retire, issue, buffers)) ->
      let c = Machine.config_for_clusters ~width n in
      let what = Printf.sprintf "%d-wide/%dcl" width n in
      Machine.validate_config c;
      check Alcotest.(list int) what
        [ n; dq; phys; fetch; fetch; retire; issue; buffers; buffers ]
        [ Assignment.num_clusters c.Machine.assignment; c.Machine.dq_entries;
          c.Machine.phys_per_bank; c.Machine.fetch_width; c.Machine.dispatch_width;
          c.Machine.retire_width; c.Machine.issue_limits.Mcsim_isa.Issue_rules.total;
          c.Machine.operand_buffer_entries; c.Machine.result_buffer_entries ])
    [ ((8, 1), (128, 128, 12, 8, 8, 8)); ((8, 2), (64, 64, 12, 8, 4, 8));
      ((8, 4), (32, 32, 12, 8, 2, 4)); ((8, 8), (16, 32, 12, 8, 1, 2));
      ((4, 1), (64, 64, 6, 4, 4, 8)); ((4, 2), (32, 32, 6, 4, 2, 4)) ];
  check Alcotest.bool "one cluster has no globals" true
    ((Machine.config_for_clusters 1).Machine.assignment == Assignment.single);
  let refuses what f =
    check Alcotest.bool what true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  refuses "3 clusters" (fun () -> Machine.config_for_clusters 3);
  refuses "width 6" (fun () -> Machine.config_for_clusters ~width:6 2);
  refuses "width 16" (fun () -> Machine.config_for_clusters ~width:16 1);
  refuses "4 clusters at width 4" (fun () -> Machine.config_for_clusters ~width:4 4);
  refuses "8 clusters at width 4" (fun () -> Machine.config_for_clusters ~width:4 8)

let m_conservation =
  QCheck.Test.make ~name:"machine retires the whole trace (random programs)" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params =
        { Mcsim_workload.Synth.name = "rand"; seed;
          n_segments = 5; p_diamond = 0.4; p_inner_loop = 0.2;
          inner_trip_min = 2; inner_trip_max = 6; outer_trip = 500;
          block_min = 2; block_max = 6;
          int_pool = 12; fp_pool = 8; n_communities = 2; p_cross_community = 0.2;
          mix =
            { Mcsim_workload.Synth.w_int_other = 0.4; w_int_multiply = 0.05;
              w_fp_other = 0.2; w_fp_divide = 0.03; w_load = 0.2; w_store = 0.12 };
          chain_bias = 0.6; fp64_div_frac = 0.5; mem_fp_frac = 0.5; sp_base_frac = 0.4;
          mem_kinds =
            [ (0.5, Mcsim_workload.Synth.Stack_slots { slots = 8 });
              (0.5, Mcsim_workload.Synth.Table_random { table_bytes = 32 * 1024 }) ];
          branch_style = Mcsim_workload.Synth.Data_dependent 0.6 }
      in
      let prog = Mcsim_workload.Synth.generate params in
      let profile = Mcsim_trace.Walker.profile prog in
      let c =
        Mcsim_compiler.Pipeline.compile ~profile
          ~scheduler:Mcsim_compiler.Pipeline.default_local prog
      in
      let trace =
        Mcsim_trace.Walker.trace_flat ~max_instrs:3_000 c.Mcsim_compiler.Pipeline.mach
      in
      let rs = run_single trace and rd = run_dual trace in
      rs.Machine.retired = Mcsim_isa.Flat_trace.length trace
      && rd.Machine.retired = Mcsim_isa.Flat_trace.length trace
      && rd.Machine.single_distributed + rd.Machine.dual_distributed
         >= rd.Machine.retired)

(* -------------------------- interconnect --------------------------- *)

module Interconnect = Mcsim_cluster.Interconnect

let ic_string_round_trip () =
  List.iter
    (fun t ->
      check Alcotest.bool
        (Interconnect.to_string t ^ " round-trips")
        true
        (Interconnect.of_string (Interconnect.to_string t) = t))
    Interconnect.all;
  check Alcotest.bool "long spellings accepted" true
    (Interconnect.of_string "point-to-point" = Interconnect.Point_to_point
    && Interconnect.of_string "crossbar" = Interconnect.Crossbar);
  check Alcotest.bool "unknown rejected" true
    (try
       ignore (Interconnect.of_string "mesh");
       false
     with Invalid_argument _ -> true)

let ic_hop_properties () =
  List.iter
    (fun t ->
      List.iter
        (fun clusters ->
          for src = 0 to clusters - 1 do
            for dst = 0 to clusters - 1 do
              let h = Interconnect.hop_latency t ~clusters ~src ~dst in
              check Alcotest.bool "at least one cycle" true (h >= 1);
              check Alcotest.int "symmetric"
                (Interconnect.hop_latency t ~clusters ~src:dst ~dst:src)
                h;
              if src = dst then check Alcotest.int "local write-back" 1 h;
              check Alcotest.bool "below the worst case" true
                (h <= Interconnect.max_hop t ~clusters);
              check Alcotest.int "matrix agrees" h
                (Interconnect.matrix t ~clusters).((src * clusters) + dst)
            done
          done)
        [ 1; 2; 4; 8 ])
    Interconnect.all

let ic_known_latencies () =
  (* The paper's machine: every dual transfer is one cycle on p2p/ring. *)
  check Alcotest.int "dual p2p" 1
    (Interconnect.hop_latency Interconnect.Point_to_point ~clusters:2 ~src:0 ~dst:1);
  check Alcotest.int "dual ring" 1
    (Interconnect.hop_latency Interconnect.Ring ~clusters:2 ~src:0 ~dst:1);
  check Alcotest.int "xbar arbitrates even at two" 2
    (Interconnect.hop_latency Interconnect.Crossbar ~clusters:2 ~src:0 ~dst:1);
  (* Ring distance is minimal around the ring. *)
  check Alcotest.int "ring of 8: neighbors" 1
    (Interconnect.hop_latency Interconnect.Ring ~clusters:8 ~src:0 ~dst:7);
  check Alcotest.int "ring of 8: diameter" 4
    (Interconnect.hop_latency Interconnect.Ring ~clusters:8 ~src:0 ~dst:4);
  check Alcotest.int "ring of 4: diameter" 2
    (Interconnect.hop_latency Interconnect.Ring ~clusters:4 ~src:1 ~dst:3)

let ic_out_of_range () =
  check Alcotest.bool "bad cluster index rejected" true
    (try
       ignore (Interconnect.hop_latency Interconnect.Ring ~clusters:4 ~src:0 ~dst:4);
       false
     with Invalid_argument _ -> true)

(* --------------------------- steering ------------------------------ *)

(* Regression for the dual-era steering bias: the dispatch preference
   used to be a comparison of clusters 0 and 1 only, so on a
   four-cluster machine steering-free work could never be steered at
   idle clusters 2 and 3. Load clusters 0 and 1 with dependent multiply
   chains, then dispatch instructions with no sources and no effective
   destination: the argmin steering must spread them over clusters 2
   and 3 (this fails on the old two-way preference, which parks them
   all on cluster 0/1). *)
let m_steering_uses_all_clusters () =
  let chain_len = 12 in
  let fillers = 8 in
  let n = (2 * chain_len) + fillers in
  let trace =
    Trace_kit.init n (fun i ->
        if i < 2 * chain_len then
          (* r 8 is local to cluster 0, r 9 to cluster 1 (mod-4 parity). *)
          let reg = r (8 + (i mod 2)) in
          mk ~pc:(i mod 8) Op.Int_multiply (if i < 2 then [] else [ reg ]) (Some reg)
        else mk ~pc:(i mod 8) Op.Int_other [] (Some Reg.zero_int))
  in
  let filler_clusters = ref [] in
  let on_event = function
    | Machine.Ev_dispatch { seq; cluster; _ } when seq >= 2 * chain_len ->
      filler_clusters := cluster :: !filler_clusters
    | _ -> ()
  in
  let res = Machine.run_flat ~on_event (Machine.config_for_clusters 4) trace in
  check Alcotest.int "all retired" n res.Machine.retired;
  check Alcotest.int "every filler dispatched" fillers (List.length !filler_clusters);
  check Alcotest.bool "cluster 2 used" true (List.mem 2 !filler_clusters);
  check Alcotest.bool "cluster 3 used" true (List.mem 3 !filler_clusters);
  check Alcotest.bool "loaded clusters avoided" true
    (List.for_all (fun c -> c >= 2) !filler_clusters)

let suite =
  ( "cluster",
    [ case "assignment: even/odd with sp+gp global" asg_even_odd;
      case "assignment: clusters_of / readable_in" asg_clusters_of;
      case "assignment: locals and globals lists" asg_locals_globals;
      case "assignment: single" asg_single;
      case "assignment: custom validation" asg_custom_validation;
      case "distribution: scenario 1" dist_scenario1;
      case "distribution: scenario 2 (operand forward)" dist_scenario2;
      case "distribution: scenario 3 (result forward)" dist_scenario3;
      case "distribution: scenario 4 (global destination)" dist_scenario4;
      case "distribution: scenario 5 (operand + global)" dist_scenario5;
      case "distribution: all-odd goes to cluster 1" dist_all_odd_single_c1;
      case "distribution: split store dual-distributes" dist_store_split;
      case "distribution: zero registers ignored" dist_zero_regs_ignored;
      case "distribution: zero destination is no destination" dist_zero_dst_is_no_dst;
      case "distribution: global-only instructions follow prefer" dist_global_only_prefers;
      case "distribution: single machine always single" dist_single_machine_always_single;
      Kit.qcheck dist_plan_invariants;
      case "transfer buffer: alloc/free/next-cycle reuse" tb_alloc_free;
      case "transfer buffer: errors" tb_errors;
      Kit.qcheck tb_room_matches_scan;
      case "machine: empty trace" m_empty_trace;
      case "machine: one instruction" m_single_instruction;
      case "machine: everything retires" m_all_retired;
      case "machine: serial chain rate" m_serial_chain_rate;
      case "machine: parallel throughput near issue width" m_parallel_throughput;
      case "machine: multiply latency chain" m_multiply_latency;
      case "machine: load miss latency" m_load_miss_latency;
      case "machine: mispredict redirects fetch" m_mispredict_redirect;
      case "machine: biased branch learned" m_biased_branch_learned;
      case "machine: retire order and width" m_retire_in_order_and_width;
      case "machine: dual config degenerates to single" m_dual_as_single_equivalent;
      case "machine: distribution counters" m_distribution_counters;
      case "machine: replays instead of deadlock under tiny buffers"
        m_replay_under_tiny_buffers;
      case "machine: zero destinations need no registers" m_zero_dst_never_stalls_phys;
      case "machine: split queues run" m_split_queues_run;
      case "machine: split-queue fragmentation" m_split_queue_fragmentation;
      case "machine: determinism" m_determinism;
      case "machine: config validation" m_validate_config;
      case "machine: one rule builds the six stock machines" m_rule_stock_machines;
      case "interconnect: to_string/of_string round-trip" ic_string_round_trip;
      case "interconnect: hop latency properties" ic_hop_properties;
      case "interconnect: known latencies" ic_known_latencies;
      case "interconnect: cluster index range" ic_out_of_range;
      case "machine: steering reaches clusters 2 and 3" m_steering_uses_all_clusters;
      Kit.qcheck m_conservation ] )
