(* Writing a workload by hand with the IL builder, then sweeping a design
   parameter (transfer-buffer size) of the dual-cluster machine.

   The kernel is a two-strand pointer-free reduction: strand A and strand
   B each accumulate over an array; every iteration ends with a
   cross-strand combine, so some inter-cluster traffic is unavoidable no
   matter how the live ranges are partitioned.

   Run with: dune exec examples/custom_workload.exe *)

module Il = Mcsim_ir.Il
module Builder = Mcsim_ir.Program.Builder
module Op = Mcsim_isa.Op_class
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline

let build () =
  let b = Builder.create ~name:"two-strand-reduction" in
  let sp = Builder.sp b in
  let lr n = Builder.fresh_lr b ~name:n Il.Bank_int in
  let acc_a = lr "acc_a" and acc_b = lr "acc_b" in
  let x_a = lr "x_a" and x_b = lr "x_b" and combined = lr "combined" in
  let load dst base count =
    Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst
      ~mem:(Mcsim_ir.Mem_stream.Stride { base; stride = 8; count }) ()
  in
  let add dst srcs = Il.instr ~op:Op.Int_other ~srcs ~dst () in
  let mul dst srcs = Il.instr ~op:Op.Int_multiply ~srcs ~dst () in
  let exit_blk = Builder.add_block b [] Il.Halt in
  let body = Builder.reserve_block b in
  Builder.define_block b body
    [ (* strand A: the arrays fit in the cache, so the kernel is
         compute-bound and the inter-cluster traffic is what matters *)
      load x_a 0x10000 512;
      add acc_a [ acc_a; x_a ];
      mul acc_a [ acc_a; x_a ];
      (* strand B *)
      load x_b 0x30000 512;
      add acc_b [ acc_b; x_b ];
      mul acc_b [ acc_b; x_b ];
      (* dense cross-strand combines: each one forwards a value between
         the clusters whichever way the strands are partitioned *)
      add combined [ acc_a; acc_b ];
      add combined [ combined; x_a ];
      add combined [ combined; x_b ];
      mul combined [ combined; acc_a ] ]
    (Il.Cond { src = Some combined; model = Mcsim_ir.Branch_model.Loop { trip = 4000 };
               taken = body; not_taken = exit_blk });
  let entry =
    Builder.add_block b
      [ add acc_a []; add acc_b []; add combined [] ]
      (Il.Jump body)
  in
  Builder.finish b ~entry

let () =
  let prog = build () in
  Format.printf "%a@." Mcsim_ir.Program.pp prog;
  let profile = Mcsim_trace.Walker.profile prog in
  let local = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
  let trace = Mcsim_trace.Walker.trace_flat ~max_instrs:25_000 local.Pipeline.mach in
  let single = Machine.run_flat (Machine.single_cluster ()) trace in
  Printf.printf "single-cluster: %d cycles\n" single.Machine.cycles;
  print_endline "dual-cluster with shrinking transfer buffers (local scheduler):";
  List.iter
    (fun entries ->
      let cfg =
        { (Machine.dual_cluster ()) with
          Machine.operand_buffer_entries = entries; result_buffer_entries = entries }
      in
      let r = Machine.run_flat cfg trace in
      Printf.printf "  %2d entries: %6d cycles (%+.1f%% vs single), %d replays\n" entries
        r.Machine.cycles
        (Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
           ~dual_cycles:r.Machine.cycles)
        r.Machine.replays)
    [ 1; 2; 4; 8; 16 ]
