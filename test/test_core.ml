(* Integration tests for the Mcsim facade: the scenario walkthroughs
   (Figures 2-5), Figure 6, Table 1, the experiment harness, and the
   reduced Table-2 shape. *)

module Machine = Mcsim_cluster.Machine
module Scenario = Mcsim.Scenario
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --------------------------- scenarios ----------------------------- *)

let scenario_classification () =
  List.iteri
    (fun i o ->
      check Alcotest.int "scenario number" (i + 1)
        (Mcsim_cluster.Distribution.scenario o.Scenario.plan))
    (Scenario.all ())

let scenario1_single_copy () =
  let o = Scenario.run 1 in
  check Alcotest.bool "single copy issued" true
    (Scenario.issue_cycle o Machine.Single_copy <> None);
  check Alcotest.bool "no slave" true (Scenario.issue_cycle o Machine.Slave_copy = None)

let scenario2_ordering () =
  (* Figure 2: the slave issues first, the master one cycle later. *)
  let o = Scenario.run 2 in
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  check Alcotest.int "master issues the cycle after the slave" (slave + 1) master

let scenario3_ordering () =
  (* Figure 3: the master issues first; for a one-cycle add the slave
     issues exactly one cycle later. *)
  let o = Scenario.run 3 in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  check Alcotest.int "slave one cycle after master" (master + 1) slave;
  (* The slave writes the destination register. *)
  check Alcotest.bool "slave writeback present" true
    (List.mem_assoc Machine.Slave_copy (Scenario.writeback_cycles o))

let scenario4_both_write () =
  let o = Scenario.run 4 in
  let wbs = Scenario.writeback_cycles o in
  check Alcotest.bool "master writes its copy" true (List.mem_assoc Machine.Master_copy wbs);
  check Alcotest.bool "slave writes its copy" true (List.mem_assoc Machine.Slave_copy wbs)

let scenario5_suspend_wake () =
  let o = Scenario.run 5 in
  let has_suspend =
    List.exists (function Machine.Ev_suspend _ -> true | _ -> false) o.Scenario.events
  in
  let has_wakeup =
    List.exists (function Machine.Ev_wakeup _ -> true | _ -> false) o.Scenario.events
  in
  check Alcotest.bool "suspend observed" true has_suspend;
  check Alcotest.bool "wakeup observed" true has_wakeup;
  (* The slave issues once, before the master. *)
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  check Alcotest.bool "slave first" true (slave < master)

let scenario_forward_events () =
  let o2 = Scenario.run 2 in
  check Alcotest.bool "operand forward event" true
    (List.exists
       (function Machine.Ev_operand_forward _ -> true | _ -> false)
       o2.Scenario.events);
  let o3 = Scenario.run 3 in
  check Alcotest.bool "result forward event" true
    (List.exists
       (function Machine.Ev_result_forward _ -> true | _ -> false)
       o3.Scenario.events)

let scenario_render_nonempty () =
  List.iter
    (fun o ->
      check Alcotest.bool "render has content" true
        (String.length (Scenario.render o) > 80))
    (Scenario.all ())

let scenario_bad_number () =
  Alcotest.check_raises "scenario 6" (Invalid_argument "Scenario.run: 6 (want 1-5)")
    (fun () -> ignore (Scenario.run 6))

(* ---------------------------- figure 6 ----------------------------- *)

let figure6_partition_sane () =
  let o = Mcsim.Figure6.run () in
  let prog = o.Mcsim.Figure6.program in
  (* S (the stack pointer) is never partitioned. *)
  check Alcotest.bool "sp is a global candidate" true
    o.Mcsim.Figure6.partition.Mcsim_compiler.Partition.global_candidate.(prog.Mcsim_ir.Program.sp)

let figure6_profile () =
  let prof = Mcsim.Figure6.profile () in
  check (Alcotest.float 1e-9) "block 4 estimate" 100.0 (Mcsim_ir.Profile.count prof 3)

(* ----------------------------- table 1 ----------------------------- *)

let table1_contents () =
  let s = Mcsim.Config.table1 () in
  List.iter
    (fun needle ->
      check Alcotest.bool ("table1 mentions " ^ needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re s 0); true with Not_found -> false))
    [ "single"; "dual"; "8/16"; "latency" ]

(* ------------------------- experiment ------------------------------ *)

let experiment_consistency () =
  let prog = Spec92.program Spec92.Gcc1 in
  let module E = Mcsim.Experiment in
  let cells =
    { E.key = "single"; binary = E.native; config = Machine.single_cluster () }
    :: List.map
         (fun (key, scheduler) ->
           { E.key; binary = { E.native with scheduler }; config = Machine.dual_cluster () })
         E.default_schedulers
  in
  match
    E.run
      { E.kind = "test"; identity = (Machine.dual_cluster (), []); programs = [ prog ]; cells;
        seed = 1; max_instrs = 8_000; sampling = None; row = (fun _ rs -> List.map snd rs) }
  with
  | [ Ok (single :: duals) ] ->
    check Alcotest.int "one result per cell" (List.length cells) (1 + List.length duals);
    check Alcotest.int "single retires everything" 8_000 single.Machine.retired;
    List.iter
      (fun (r : Machine.result) ->
        check Alcotest.int "dual retires everything" 8_000 r.Machine.retired;
        check Alcotest.bool "speedup finite" true
          (Float.is_finite
             (Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
                ~dual_cycles:r.Machine.cycles)))
      duals
  | _ -> Alcotest.fail "expected one program with a result per cell"

(* -------------------------- table 2 shape -------------------------- *)

let table2_gcc1_shape () =
  (* One benchmark at a moderate trace length: the local scheduler must
     beat the native binary on the dual-cluster machine, and both must be
     slower than the single-cluster machine. *)
  let rows =
    Kit.rows (Mcsim.Table2.matrix ~max_instrs:40_000 ~benchmarks:[ Spec92.Gcc1 ] ())
  in
  match rows with
  | [ r ] ->
    check Alcotest.bool "none is a slowdown" true (r.Mcsim.Table2.none_pct < 0.0);
    check Alcotest.bool
      (Printf.sprintf "local (%.1f) beats none (%.1f)" r.Mcsim.Table2.local_pct
         r.Mcsim.Table2.none_pct)
      true
      (r.Mcsim.Table2.local_pct > r.Mcsim.Table2.none_pct)
  | _ -> Alcotest.fail "expected one row"

let table2_ora_inversion () =
  let rows =
    Kit.rows (Mcsim.Table2.matrix ~max_instrs:40_000 ~benchmarks:[ Spec92.Ora ] ())
  in
  match rows with
  | [ r ] ->
    check Alcotest.bool
      (Printf.sprintf "ora: local (%.1f) worse than none (%.1f)" r.Mcsim.Table2.local_pct
         r.Mcsim.Table2.none_pct)
      true
      (r.Mcsim.Table2.local_pct < r.Mcsim.Table2.none_pct)
  | _ -> Alcotest.fail "expected one row"

let table2_render () =
  let rows =
    [ { Mcsim.Table2.benchmark = "gcc1"; none_pct = -15.0; local_pct = -10.0;
        single_cycles = 100; none_cycles = 115; local_cycles = 110; none_replays = 0;
        local_replays = 0 } ]
  in
  let s = Mcsim.Table2.render rows in
  check Alcotest.bool "mentions the benchmark" true
    (try ignore (Str.search_forward (Str.regexp_string "gcc1") s 0); true
     with Not_found -> false);
  check Alcotest.bool "mentions the paper value" true
    (try ignore (Str.search_forward (Str.regexp_string "-15.0") s 0); true
     with Not_found -> false)

let table2_paper_values () =
  check Alcotest.int "six rows" 6 (List.length Mcsim.Table2.paper);
  check Alcotest.bool "compress local is the only positive" true
    (List.for_all
       (fun (n, _, local) -> if n = "compress" then local > 0.0 else local < 0.0)
       Mcsim.Table2.paper)

(* -------------------------- cycle time ----------------------------- *)

let cycle_time_analysis () =
  let rows =
    [ { Mcsim.Table2.benchmark = "x"; none_pct = -20.0; local_pct = -20.0;
        single_cycles = 1000; none_cycles = 1200; local_cycles = 1200; none_replays = 0;
        local_replays = 0 } ]
  in
  match Mcsim.Cycle_time.analyse rows with
  | [ n ] ->
    check Alcotest.bool "0.35um: 20% slowdown loses" true (n.Mcsim.Cycle_time.net_035_pct < 0.0);
    check Alcotest.bool "0.18um: 20% slowdown wins" true (n.Mcsim.Cycle_time.net_018_pct > 0.0)
  | _ -> Alcotest.fail "one row expected"

let cycle_time_break_even_text () =
  let s = Mcsim.Cycle_time.break_even_example () in
  check Alcotest.bool "mentions 20%" true
    (try ignore (Str.search_forward (Str.regexp_string "20%") s 0); true
     with Not_found -> false)

(* --------------------------- ablations ----------------------------- *)

let ablation_buffers () =
  let s = List.hd (Kit.rows (Mcsim.Ablation.matrix ~max_instrs:6_000 Buffers Spec92.Gcc1)) in
  check Alcotest.int "five points" 5 (List.length s.Mcsim.Ablation.points);
  List.iter
    (fun p -> check Alcotest.bool "cycles positive" true (p.Mcsim.Ablation.dual_cycles > 0))
    s.Mcsim.Ablation.points;
  check Alcotest.bool "render nonempty" true (String.length (Mcsim.Ablation.render s) > 40)

let ablation_partitioners () =
  let s =
    List.hd (Kit.rows (Mcsim.Ablation.matrix ~max_instrs:6_000 Partitioners Spec92.Compress))
  in
  check Alcotest.int "four partitioners" 4 (List.length s.Mcsim.Ablation.points)

let suite =
  ( "core",
    [ case "scenarios: classification 1-5" scenario_classification;
      case "scenario 1: single copy only" scenario1_single_copy;
      case "scenario 2: master after slave (Figure 2)" scenario2_ordering;
      case "scenario 3: slave after master (Figure 3)" scenario3_ordering;
      case "scenario 4: both copies written (Figure 4)" scenario4_both_write;
      case "scenario 5: suspend and wake (Figure 5)" scenario5_suspend_wake;
      case "scenarios: forwarding events" scenario_forward_events;
      case "scenarios: rendering" scenario_render_nonempty;
      case "scenarios: bad number" scenario_bad_number;
      case "figure 6: partition sanity" figure6_partition_sane;
      case "figure 6: profile estimates" figure6_profile;
      case "table 1: contents" table1_contents;
      case "experiment: consistency" experiment_consistency;
      case "table 2: gcc1 shape" table2_gcc1_shape;
      case "table 2: ora inversion" table2_ora_inversion;
      case "table 2: rendering" table2_render;
      case "table 2: paper values" table2_paper_values;
      case "cycle time: analysis signs" cycle_time_analysis;
      case "cycle time: break-even text" cycle_time_break_even_text;
      case "ablation: transfer buffers" ablation_buffers;
      case "ablation: partitioners" ablation_partitioners ] )
