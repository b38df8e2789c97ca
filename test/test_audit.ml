(* Property tests: the event auditor's pipeline invariants hold on random
   workloads, machine configurations, and failure-injection settings. *)

module Machine = Mcsim_cluster.Machine
module Synth = Mcsim_workload.Synth
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let random_program seed =
  Synth.generate
    { Synth.name = "audit"; seed;
      n_segments = 4 + (seed mod 4); p_diamond = 0.4; p_inner_loop = 0.25;
      inner_trip_min = 2; inner_trip_max = 8; outer_trip = 300;
      block_min = 2; block_max = 8;
      int_pool = 12; fp_pool = 10; n_communities = 2;
      p_cross_community = float_of_int (seed mod 5) /. 10.0;
      mix =
        { Synth.w_int_other = 0.35; w_int_multiply = 0.05; w_fp_other = 0.2;
          w_fp_divide = 0.05; w_load = 0.2; w_store = 0.15 };
      chain_bias = 0.5; fp64_div_frac = 0.5; mem_fp_frac = 0.5; sp_base_frac = 0.3;
      mem_kinds =
        [ (0.6, Synth.Stack_slots { slots = 8 });
          (0.4, Synth.Table_random { table_bytes = 16 * 1024 }) ];
      branch_style = Synth.Data_dependent 0.6 }

let trace_of seed scheduler =
  let prog = random_program seed in
  let profile = Mcsim_trace.Walker.profile prog in
  let c = Mcsim_compiler.Pipeline.compile ~profile ~scheduler prog in
  Mcsim_trace.Walker.trace_flat ~max_instrs:2_500 c.Mcsim_compiler.Pipeline.mach

let assert_clean cfg trace =
  let _, errors = Event_audit.run_audited cfg trace in
  match errors with
  | [] -> true
  | e :: _ ->
    QCheck.Test.fail_reportf "audit failed (%d errors), first: %s" (List.length errors) e

let audit_single =
  QCheck.Test.make ~name:"pipeline invariants hold on the single-cluster machine" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed -> assert_clean (Machine.single_cluster ()) (trace_of seed Mcsim_compiler.Pipeline.Sched_none))

let audit_dual_none =
  QCheck.Test.make ~name:"pipeline invariants hold on the dual machine (native)" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed -> assert_clean (Machine.dual_cluster ()) (trace_of seed Mcsim_compiler.Pipeline.Sched_none))

let audit_dual_local =
  QCheck.Test.make ~name:"pipeline invariants hold on the dual machine (local)" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      assert_clean (Machine.dual_cluster ()) (trace_of seed Mcsim_compiler.Pipeline.default_local))

let audit_starved_buffers =
  QCheck.Test.make
    ~name:"pipeline invariants hold under starved transfer buffers (replays)" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg =
        { (Machine.dual_cluster ()) with
          Machine.operand_buffer_entries = 1;
          result_buffer_entries = 1;
          replay_threshold = 4 }
      in
      assert_clean cfg (trace_of seed Mcsim_compiler.Pipeline.Sched_round_robin))

let audit_tiny_queues =
  QCheck.Test.make ~name:"pipeline invariants hold with tiny dispatch queues" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg = { (Machine.dual_cluster ()) with Machine.dq_entries = 4 } in
      assert_clean cfg (trace_of seed (Mcsim_compiler.Pipeline.Sched_random 3)))

let audit_tight_registers =
  QCheck.Test.make ~name:"pipeline invariants hold with minimal physical registers" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg = { (Machine.dual_cluster ()) with Machine.phys_per_bank = 34 } in
      assert_clean cfg (trace_of seed Mcsim_compiler.Pipeline.default_local))

let audit_split_queues =
  QCheck.Test.make ~name:"pipeline invariants hold with per-class dispatch queues" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg = { (Machine.dual_cluster ()) with Machine.queue_split = Machine.Per_class } in
      assert_clean cfg (trace_of seed Mcsim_compiler.Pipeline.default_local))

let quad_trace seed =
  let prog = random_program seed in
  let profile = Mcsim_trace.Walker.profile prog in
  let c =
    Mcsim_compiler.Pipeline.compile ~clusters:4 ~profile
      ~scheduler:Mcsim_compiler.Pipeline.default_local prog
  in
  Mcsim_trace.Walker.trace_flat ~max_instrs:2_500 c.Mcsim_compiler.Pipeline.mach

let octa_trace seed =
  let prog = random_program seed in
  let profile = Mcsim_trace.Walker.profile prog in
  let c =
    Mcsim_compiler.Pipeline.compile ~clusters:8 ~profile
      ~scheduler:Mcsim_compiler.Pipeline.default_local prog
  in
  Mcsim_trace.Walker.trace_flat ~max_instrs:2_500 c.Mcsim_compiler.Pipeline.mach

let audit_four_clusters =
  QCheck.Test.make ~name:"pipeline invariants hold on the four-cluster machine" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed -> assert_clean (Machine.config_for_clusters 4) (quad_trace seed))

let audit_eight_clusters =
  QCheck.Test.make ~name:"pipeline invariants hold on the eight-cluster machine" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed -> assert_clean (Machine.config_for_clusters 8) (octa_trace seed))

let audit_quad_native =
  QCheck.Test.make ~name:"four-cluster machine survives cluster-oblivious binaries" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed -> assert_clean (Machine.config_for_clusters 4) (trace_of seed Mcsim_compiler.Pipeline.Sched_none))

let audit_benchmarks () =
  (* One audited run per real benchmark preset on the dual machine. *)
  List.iter
    (fun b ->
      let prog = Spec92.program b in
      let profile = Mcsim_trace.Walker.profile prog in
      let c =
        Mcsim_compiler.Pipeline.compile ~profile
          ~scheduler:Mcsim_compiler.Pipeline.default_local prog
      in
      let trace =
        Mcsim_trace.Walker.trace_flat ~max_instrs:4_000 c.Mcsim_compiler.Pipeline.mach
      in
      let _, errors = Event_audit.run_audited (Machine.dual_cluster ()) trace in
      check Alcotest.(list string) (Spec92.name b ^ " audit clean") [] errors)
    Spec92.all

let suite =
  ( "audit",
    [ Kit.qcheck audit_single;
      Kit.qcheck audit_dual_none;
      Kit.qcheck audit_dual_local;
      Kit.qcheck audit_starved_buffers;
      Kit.qcheck audit_tiny_queues;
      Kit.qcheck audit_tight_registers;
      Kit.qcheck audit_split_queues;
      Kit.qcheck audit_four_clusters;
      Kit.qcheck audit_eight_clusters;
      Kit.qcheck audit_quad_native;
      case "audit: all six benchmarks" audit_benchmarks ] )
