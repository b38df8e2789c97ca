(* Tests for dynamic register reassignment (Machine.run_phased_flat) and
   the demonstration experiment. *)

module Machine = Mcsim_cluster.Machine
module Assignment = Mcsim_cluster.Assignment
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let simple_trace n =
  Trace_kit.init n (fun i ->
      Trace_kit.mk ~pc:(i mod 8) Op.Int_other [] (Some (Reg.int_reg (2 * (i mod 5)))))

let moved_registers () =
  let a = Assignment.create ~num_clusters:2 () in
  check Alcotest.int "same assignment moves nothing" 0
    (List.length (Machine.moved_registers a a));
  let b = Assignment.create ~num_clusters:2 ~globals:[ Reg.sp; Reg.gp; Reg.int_reg 4 ] () in
  (* r4 goes from Local 0 to Global. *)
  check Alcotest.(list string) "r4 moved" [ "r4" ]
    (List.map Reg.to_string (Machine.moved_registers a b))

let phased_single_phase_equals_run () =
  let cfg = Machine.dual_cluster () in
  let trace = simple_trace 300 in
  let a = Machine.run_flat cfg trace in
  let b = Machine.run_phased_flat cfg [ (cfg.Machine.assignment, trace) ] in
  check Alcotest.int "identical cycles" a.Machine.cycles b.Machine.cycles

let phased_counts_all_phases () =
  let cfg = Machine.dual_cluster () in
  let t1 = simple_trace 200 and t2 = simple_trace 150 in
  let r =
    Machine.run_phased_flat cfg [ (cfg.Machine.assignment, t1); (cfg.Machine.assignment, t2) ]
  in
  check Alcotest.int "both phases retired" 350 r.Machine.retired;
  check Alcotest.int "no reassignment for identical assignments" 0
    (Machine.counter r "reassignments")

let phased_pays_overhead () =
  let cfg = Machine.dual_cluster () in
  let asg2 = Assignment.create ~num_clusters:2 ~globals:[ Reg.sp; Reg.gp; Reg.int_reg 0 ] () in
  let t1 = simple_trace 200 and t2 = simple_trace 200 in
  let same =
    Machine.run_phased_flat cfg [ (cfg.Machine.assignment, t1); (cfg.Machine.assignment, t2) ]
  in
  let switched = Machine.run_phased_flat cfg [ (cfg.Machine.assignment, t1); (asg2, t2) ] in
  check Alcotest.int "one reassignment" 1 (Machine.counter switched "reassignments");
  check Alcotest.bool "registers copied" true
    (Machine.counter switched "reassigned_registers" >= 1);
  check Alcotest.bool "switch costs cycles" true
    (switched.Machine.cycles >= same.Machine.cycles);
  check Alcotest.int "all instructions still retire" 400 switched.Machine.retired

let moved_registers_symmetric () =
  let a = Assignment.create ~num_clusters:2 () in
  let b = Assignment.create ~num_clusters:2 ~globals:[ Reg.sp; Reg.gp; Reg.int_reg 4 ] () in
  let names asg asg' = List.sort compare (List.map Reg.to_string (Machine.moved_registers asg asg')) in
  check Alcotest.(list string) "a->b and b->a move the same registers" (names a b) (names b a)

(* Two structurally equal assignment values are as free to switch
   between as reusing the same value: nothing moves, nothing stalls. *)
let phased_equal_assignments_free () =
  let cfg = Machine.dual_cluster () in
  let twin = Assignment.create ~num_clusters:2 () in
  check Alcotest.int "twin assignment moves nothing" 0
    (List.length (Machine.moved_registers cfg.Machine.assignment twin));
  let t1 = simple_trace 200 and t2 = simple_trace 150 in
  let same =
    Machine.run_phased_flat cfg [ (cfg.Machine.assignment, t1); (cfg.Machine.assignment, t2) ]
  in
  let twinned = Machine.run_phased_flat cfg [ (cfg.Machine.assignment, t1); (twin, t2) ] in
  check Alcotest.int "no resync cost" same.Machine.cycles twinned.Machine.cycles;
  check Alcotest.int "no registers copied" 0 (Machine.counter twinned "reassigned_registers")

(* The worst-case reassignment: the second phase inverts the parity
   mapping, so every local register changes clusters. *)
let phased_all_registers_moved () =
  let cfg = Machine.dual_cluster () in
  let base = cfg.Machine.assignment in
  let inverted =
    Assignment.custom ~num_clusters:2 (fun r ->
        match Assignment.placement base r with
        | Assignment.Local c -> Assignment.Local (1 - c)
        | Assignment.Global -> Assignment.Global)
  in
  let moved = List.length (Machine.moved_registers base inverted) in
  check Alcotest.bool "every local register moves" true
    (moved > (Reg.num_int + Reg.num_fp) / 2);
  let t1 = simple_trace 200 and t2 = simple_trace 200 in
  let same = Machine.run_phased_flat cfg [ (base, t1); (base, t2) ] in
  let flipped = Machine.run_phased_flat cfg [ (base, t1); (inverted, t2) ] in
  check Alcotest.int "all moved registers copied" moved
    (Machine.counter flipped "reassigned_registers");
  check Alcotest.bool "worst case costs more than no switch" true
    (flipped.Machine.cycles > same.Machine.cycles);
  check Alcotest.int "all instructions still retire" 400 flipped.Machine.retired

(* The plan memo outlives a phase only under the same assignment. The
   same trace (the same interned instructions) run again under an
   assignment that moves [r4] to cluster 1 must be planned afresh: its
   instructions now need a slave, exactly as a freshly built copy of
   the trace does. *)
let phased_new_assignment_replans () =
  let cfg = Machine.dual_cluster () in
  let base = cfg.Machine.assignment in
  let split =
    Assignment.custom ~num_clusters:2 (fun r ->
        if Reg.equal r (Reg.int_reg 4) then Assignment.Local 1 else Assignment.placement base r)
  in
  let trace () =
    Trace_kit.init 100 (fun i ->
        Trace_kit.mk ~pc:(i mod 4) Op.Int_other [ Reg.int_reg 2; Reg.int_reg 4 ]
          (Some (Reg.int_reg 6)))
  in
  let t = trace () in
  (* A stale plan reads [r4] in cluster 0, where it never becomes ready. *)
  let run phases = Machine.run_phased_flat ~max_cycles:100_000 cfg phases in
  let again = run [ (base, t); (split, t) ] in
  let fresh = run [ (base, t); (split, trace ()) ] in
  check Alcotest.int "the second phase distributes every instruction" 100
    again.Machine.dual_distributed;
  check Alcotest.bool "same result as a freshly built trace" true (again = fresh)

let phased_cluster_count_fixed () =
  let cfg = Machine.dual_cluster () in
  Alcotest.check_raises "cannot change cluster count"
    (Invalid_argument "Machine.load_phase: cluster count cannot change") (fun () ->
      ignore (Machine.run_phased_flat cfg [ (Assignment.single, simple_trace 10) ]))

let demo_reduces_duals () =
  let o = Mcsim.Reassign.run ~phase_iterations:500 () in
  check Alcotest.bool "dual distribution collapses" true
    (o.Mcsim.Reassign.phased_result.Machine.dual_distributed * 100
     < o.Mcsim.Reassign.static_result.Machine.dual_distributed);
  check Alcotest.bool "cycles improve" true (Mcsim.Reassign.improvement_pct o > 0.0);
  check Alcotest.bool "distinct shared registers" true
    (not (Reg.equal o.Mcsim.Reassign.shared_a o.Mcsim.Reassign.shared_b))

let demo_render () =
  let o = Mcsim.Reassign.run ~phase_iterations:200 () in
  check Alcotest.bool "render mentions improvement" true
    (try
       ignore (Str.search_forward (Str.regexp_string "improvement") (Mcsim.Reassign.render o) 0);
       true
     with Not_found -> false)

let suite =
  ( "reassign",
    [ case "moved registers" moved_registers;
      case "moved registers are symmetric" moved_registers_symmetric;
      case "single phase equals plain run" phased_single_phase_equals_run;
      case "phases accumulate" phased_counts_all_phases;
      case "equal assignments switch for free" phased_equal_assignments_free;
      case "all registers moved (inverted parity)" phased_all_registers_moved;
      case "reassignment pays its overhead" phased_pays_overhead;
      case "a new assignment re-plans the same trace" phased_new_assignment_replans;
      case "cluster count is fixed" phased_cluster_count_fixed;
      case "demo: duals collapse and cycles improve" demo_reduces_duals;
      case "demo: rendering" demo_render ] )
