(* Quickstart: build a small program, compile it twice (native and with
   the paper's local scheduler), and race the single-cluster machine
   against the dual-cluster machine.

   Run with: dune exec examples/quickstart.exe *)

module Synth = Mcsim_workload.Synth
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Machine = Mcsim_cluster.Machine

let () =
  (* 1. A workload: a small integer kernel with two data-flow strands. *)
  let params =
    { Synth.name = "quickstart"; seed = 42;
      n_segments = 6; p_diamond = 0.4; p_inner_loop = 0.2;
      inner_trip_min = 4; inner_trip_max = 10; outer_trip = 5_000;
      block_min = 4; block_max = 8;
      int_pool = 16; fp_pool = 0;
      n_communities = 2; p_cross_community = 0.1;
      mix =
        { Synth.w_int_other = 0.6; w_int_multiply = 0.05; w_fp_other = 0.0; w_fp_divide = 0.0;
          w_load = 0.2; w_store = 0.15 };
      chain_bias = 0.5; fp64_div_frac = 0.0; mem_fp_frac = 0.0; sp_base_frac = 0.3;
      mem_kinds = [ (1.0, Synth.Stack_slots { slots = 16 }) ];
      branch_style = Synth.Biased 0.8 }
  in
  let prog = Synth.generate params in
  Printf.printf "program: %d blocks, %d live ranges, %d static instructions\n"
    (Mcsim_ir.Program.num_blocks prog)
    (Mcsim_ir.Program.num_lrs prog)
    (Mcsim_ir.Program.num_static_instrs prog);

  (* 2. Profile it (the paper's profiling run). *)
  let profile = Walker.profile prog in

  (* 3. Compile the native binary and the rescheduled binary. *)
  let native = Pipeline.compile ~profile ~scheduler:Pipeline.Sched_none prog in
  let local = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in

  (* 4. Same input (seed), three machine runs. *)
  let max_instrs = 40_000 in
  let native_trace = Walker.trace_flat ~max_instrs native.Pipeline.mach in
  let local_trace = Walker.trace_flat ~max_instrs local.Pipeline.mach in
  let single = Machine.run_flat (Machine.single_cluster ()) native_trace in
  let dual_none = Machine.run_flat (Machine.dual_cluster ()) native_trace in
  let dual_local = Machine.run_flat (Machine.dual_cluster ()) local_trace in

  let pct dual =
    Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
      ~dual_cycles:dual.Machine.cycles
  in
  Printf.printf "single-cluster, native binary:       %7d cycles (IPC %.2f)\n"
    single.Machine.cycles single.Machine.ipc;
  Printf.printf "dual-cluster,   native binary:       %7d cycles (%+.1f%%, %d dual-distributed)\n"
    dual_none.Machine.cycles (pct dual_none) dual_none.Machine.dual_distributed;
  Printf.printf "dual-cluster,   local scheduler:     %7d cycles (%+.1f%%, %d dual-distributed)\n"
    dual_local.Machine.cycles (pct dual_local) dual_local.Machine.dual_distributed;

  (* 5. Fold in the clock: would the dual-cluster machine win end to end? *)
  List.iter
    (fun feature ->
      Printf.printf "net at %s: %+.1f%%\n"
        (Mcsim_timing.Palacharla.feature_to_string feature)
        (Mcsim_timing.Net_performance.net_speedup_pct ~single_cycles:single.Machine.cycles
           ~cycles:dual_local.Machine.cycles ~feature (Machine.dual_cluster ())))
    [ Mcsim_timing.Palacharla.F0_35; Mcsim_timing.Palacharla.F0_18 ]
