(* Tests for Mcsim_compiler: liveness, the list scheduler, partitioners,
   the local scheduler, register allocation, and lowering. *)

module Il = Mcsim_ir.Il
module Program = Mcsim_ir.Program
module Profile = Mcsim_ir.Profile
module Builder = Program.Builder
module Op = Mcsim_isa.Op_class
module Reg = Mcsim_isa.Reg
module Liveness = Mcsim_compiler.Liveness
module List_scheduler = Mcsim_compiler.List_scheduler
module Partition = Mcsim_compiler.Partition
module Local_scheduler = Mcsim_compiler.Local_scheduler
module Regalloc = Mcsim_compiler.Regalloc
module Lowering = Mcsim_compiler.Lowering
module Mach_prog = Mcsim_compiler.Mach_prog
module Pipeline = Mcsim_compiler.Pipeline
module Synth = Mcsim_workload.Synth
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* A diamond with a loop back-edge:
     b0: x <- const; y <- const
     b0 -> b1 (x used) or b2 (y used); both -> b3; b3 loops to b0 or halts. *)
let diamond_program () =
  let b = Builder.create ~name:"diamond" in
  let x = Builder.fresh_lr b ~name:"x" Il.Bank_int in
  let y = Builder.fresh_lr b ~name:"y" Il.Bank_int in
  let t = Builder.fresh_lr b ~name:"t" Il.Bank_int in
  let b0 = Builder.reserve_block b in
  let b1 = Builder.reserve_block b in
  let b2 = Builder.reserve_block b in
  let b3 = Builder.reserve_block b in
  let exit_blk = Builder.add_block b [] Il.Halt in
  Builder.define_block b b0
    [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:x ();
      Il.instr ~op:Op.Int_other ~srcs:[] ~dst:y () ]
    (Il.Cond { src = Some x; model = Mcsim_ir.Branch_model.Taken_prob 0.5; taken = b1;
               not_taken = b2 });
  Builder.define_block b b1
    [ Il.instr ~op:Op.Int_other ~srcs:[ x; x ] ~dst:t () ]
    (Il.Jump b3);
  Builder.define_block b b2
    [ Il.instr ~op:Op.Int_other ~srcs:[ y; y ] ~dst:t () ]
    (Il.Fallthrough b3);
  Builder.define_block b b3
    [ Il.instr ~op:Op.Int_other ~srcs:[ t; x ] ~dst:t () ]
    (Il.Cond { src = Some t; model = Mcsim_ir.Branch_model.Loop { trip = 4 }; taken = b0;
               not_taken = exit_blk });
  (Builder.finish b ~entry:b0, x, y, t)

(* --------------------------- liveness ------------------------------ *)

let live_sets () =
  let p, x, y, t = diamond_program () in
  let l = Liveness.analyse p in
  check Alcotest.bool "x live into b1" true (List.mem x (Liveness.live_in l 1));
  check Alcotest.bool "y live into b2" true (List.mem y (Liveness.live_in l 2));
  check Alcotest.bool "y not live into b1" false (List.mem y (Liveness.live_in l 1));
  check Alcotest.bool "t live into b3" true (List.mem t (Liveness.live_in l 3));
  (* x is redefined at the top of b0 before any later use, so the loop
     does not keep it live out of b3. *)
  check Alcotest.bool "x dead out of b3" false (List.mem x (Liveness.live_out l 3));
  check Alcotest.bool "x live into b3" true (List.mem x (Liveness.live_in l 3))

let live_interference () =
  let p, x, y, t = diamond_program () in
  let l = Liveness.analyse p in
  check Alcotest.bool "x and y interfere" true (Liveness.interferes l x y);
  check Alcotest.bool "x and t interfere (loop)" true (Liveness.interferes l x t);
  check Alcotest.bool "symmetric" true (Liveness.interferes l y x);
  check Alcotest.bool "no self edge" false (Liveness.interferes l x x)

let live_sites () =
  let p, x, _, t = diamond_program () in
  let l = Liveness.analyse p in
  check Alcotest.(list (pair int int)) "x defined once in b0" [ (0, 0) ]
    (Liveness.def_sites l x);
  check Alcotest.int "t has three defs" 3 (List.length (Liveness.def_sites l t));
  check Alcotest.bool "x used by b0 terminator" true
    (List.mem (0, 2) (Liveness.use_sites l x));
  check Alcotest.bool "use_count counts defs+uses" true (Liveness.use_count l x >= 4);
  ignore p

let live_sp_gp_excluded () =
  let p, x, _, _ = diamond_program () in
  let l = Liveness.analyse p in
  check Alcotest.bool "sp never interferes" false
    (Liveness.interferes l p.Program.sp x);
  check Alcotest.int "sp degree 0" 0 (Liveness.degree l p.Program.sp)

let live_cross_bank_never_interferes =
  QCheck.Test.make ~name:"interference is same-bank only" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let prog = Synth.generate { (Spec92.params Spec92.Doduc) with Synth.seed; outer_trip = 5 } in
      let l = Liveness.analyse prog in
      let n = Program.num_lrs prog in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Liveness.interferes l a b && Program.lr_bank prog a <> Program.lr_bank prog b
          then ok := false
        done
      done;
      !ok)

(* ------------------------ list scheduler --------------------------- *)

let ls_respects_dependences () =
  let mk_instr srcs dst = Il.instr ~op:Op.Int_other ~srcs ?dst () in
  let block =
    [| mk_instr [] (Some 2); mk_instr [ 2 ] (Some 3); mk_instr [] (Some 4);
       mk_instr [ 3; 4 ] (Some 5) |]
  in
  let out = List_scheduler.schedule_block block in
  check Alcotest.bool "valid schedule" true (List_scheduler.respects_dependences block out)

let ls_hoists_long_latency () =
  (* A late independent multiply should be hoisted above short adds. *)
  let add srcs dst = Il.instr ~op:Op.Int_other ~srcs ~dst () in
  let block =
    [| add [] 2; add [ 2 ] 3;
       Il.instr ~op:Op.Int_multiply ~srcs:[] ~dst:4 ();
       add [ 3; 4 ] 5 |]
  in
  let out = List_scheduler.schedule_block block in
  check Alcotest.bool "multiply scheduled first" true
    (Op.equal out.(0).Il.op Op.Int_multiply);
  check Alcotest.bool "still valid" true (List_scheduler.respects_dependences block out)

let ls_keeps_memory_order () =
  let slot addr = Mcsim_ir.Mem_stream.Fixed { addr } in
  let block =
    [| Il.instr ~op:Op.Store ~srcs:[ 2; 0 ] ~mem:(slot 0) ();
       Il.instr ~op:Op.Load ~srcs:[ 0 ] ~dst:3 ~mem:(slot 0) ();
       Il.instr ~op:Op.Store ~srcs:[ 3; 0 ] ~mem:(slot 8) () |]
  in
  let out = List_scheduler.schedule_block block in
  let ops = Array.to_list (Array.map (fun i -> i.Il.op) out) in
  check Alcotest.bool "memory ops keep order" true
    (ops = [ Op.Store; Op.Load; Op.Store ])

let ls_whole_program_valid () =
  let p, _, _, _ = diamond_program () in
  let p' = List_scheduler.schedule p in
  check Alcotest.int "same shape" (Program.num_static_instrs p) (Program.num_static_instrs p')

let ls_random_blocks_valid =
  QCheck.Test.make ~name:"list scheduler respects dependences on random blocks" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Mcsim_util.Rng.create seed in
      let block =
        Array.init n (fun _ ->
            let nsrc = Mcsim_util.Rng.int rng 3 in
            let srcs = List.init nsrc (fun _ -> 2 + Mcsim_util.Rng.int rng 6) in
            let dst = if Mcsim_util.Rng.bool rng then Some (2 + Mcsim_util.Rng.int rng 6) else None in
            match dst with
            | Some d -> Il.instr ~op:Op.Int_other ~srcs ~dst:d ()
            | None -> Il.instr ~op:Op.Store ~srcs:(2 :: srcs |> List.filteri (fun i _ -> i < 2))
                        ~mem:(Mcsim_ir.Mem_stream.Fixed { addr = 0 }) ())
      in
      List_scheduler.respects_dependences block (List_scheduler.schedule_block block))

(* -------------------------- partitions ----------------------------- *)

let part_none () =
  let p, x, _, _ = diamond_program () in
  let t = Partition.none p in
  check Alcotest.bool "unconstrained" true (Partition.cluster_of t x = Partition.Unconstrained);
  check Alcotest.bool "sp global" true t.Partition.global_candidate.(p.Program.sp);
  let _, _, u, g = Partition.counts t in
  check Alcotest.int "two globals" 2 g;
  check Alcotest.int "rest unconstrained" (Program.num_lrs p - 2) u

let part_round_robin_balanced () =
  let prog = Synth.generate { (Spec92.params Spec92.Compress) with Synth.outer_trip = 5 } in
  let t = Partition.round_robin prog in
  let c0, c1, u, _ = Partition.counts t in
  check Alcotest.int "nothing unconstrained" 0 u;
  check Alcotest.bool "balanced within one" true (abs (c0 - c1) <= 1)

let part_random_deterministic () =
  let prog = Synth.generate { (Spec92.params Spec92.Compress) with Synth.outer_trip = 5 } in
  let a = Partition.random ~seed:3 prog and b = Partition.random ~seed:3 prog in
  check Alcotest.bool "same seed same partition" true (a.Partition.choice = b.Partition.choice)

(* ------------------------ local scheduler -------------------------- *)

let lsch_figure6_block_order () =
  let o = Mcsim.Figure6.run () in
  check Alcotest.(list int) "paper order 4 1 5 3 2" [ 4; 1; 5; 3; 2 ]
    o.Mcsim.Figure6.block_visit_order

let lsch_figure6_assignment_order () =
  let o = Mcsim.Figure6.run () in
  check Alcotest.(list string) "paper order A B G H C D E"
    [ "A"; "B"; "G"; "H"; "C"; "D"; "E" ]
    o.Mcsim.Figure6.assignment_order

let lsch_all_assigned () =
  let prog = Synth.generate { (Spec92.params Spec92.Gcc1) with Synth.outer_trip = 20 } in
  let profile = Mcsim_trace.Walker.profile prog in
  let t = Local_scheduler.partition prog profile in
  let _, _, u, _ = Partition.counts t in
  check Alcotest.int "no live range left unconstrained" 0 u

let lsch_balances_weighted_work () =
  let prog = Synth.generate { (Spec92.params Spec92.Compress) with Synth.outer_trip = 50 } in
  let profile = Mcsim_trace.Walker.profile prog in
  let t = Local_scheduler.partition prog profile in
  let c0, c1, _, _ = Partition.counts t in
  (* Not necessarily equal counts, but both clusters must be used. *)
  check Alcotest.bool "both clusters populated" true (c0 > 0 && c1 > 0)

let lsch_block_order_ties () =
  (* Equal estimates break ties by static size, then id. *)
  let b = Builder.create ~name:"ties" in
  let x = Builder.fresh_lr b ~name:"x" Il.Bank_int in
  let add = Il.instr ~op:Op.Int_other ~srcs:[] ~dst:x () in
  let b0 = Builder.add_block b [ add ] (Il.Fallthrough 1) in
  let b1 = Builder.add_block b [ add; add ] (Il.Fallthrough 2) in
  let b2 = Builder.add_block b [ add; add ] Il.Halt in
  ignore (b0, b1, b2);
  let p = Builder.finish b ~entry:0 in
  let profile = Profile.of_counts [| 5.0; 5.0; 5.0 |] in
  check Alcotest.(list int) "bigger blocks first, then id" [ 1; 2; 0 ]
    (Local_scheduler.block_order p profile)

(* ------------------------ register allocation ---------------------- *)

let ra_colors () =
  check Alcotest.int "29 unconstrained int colors" 29
    (List.length (Regalloc.int_colors ~cluster:Partition.Unconstrained ()));
  check Alcotest.int "15 cluster-0 int colors" 15
    (List.length (Regalloc.int_colors ~cluster:(Partition.Cluster 0) ()));
  check Alcotest.int "14 cluster-1 int colors" 14
    (List.length (Regalloc.int_colors ~cluster:(Partition.Cluster 1) ()));
  check Alcotest.int "31 unconstrained fp colors" 31
    (List.length (Regalloc.fp_colors ~cluster:Partition.Unconstrained ()));
  check Alcotest.int "8 cluster-0 int colors of 4" 8
    (List.length (Regalloc.int_colors ~clusters:4 ~cluster:(Partition.Cluster 0) ()));
  check Alcotest.bool "no reserved registers" true
    (List.for_all
       (fun r -> not (Reg.equal r Reg.sp || Reg.equal r Reg.gp || Reg.is_zero r))
       (Regalloc.int_colors ~cluster:Partition.Unconstrained ()))

let ra_simple_alloc () =
  let p, x, _, _ = diamond_program () in
  let r = Regalloc.allocate p (Partition.none p) in
  Regalloc.check r;
  check Alcotest.int "no spills" 0 (List.length r.Regalloc.spilled_lrs);
  check Alcotest.int "one round" 1 r.Regalloc.rounds;
  check Alcotest.bool "x got a register" true (r.Regalloc.reg_of.(x) <> None);
  check Alcotest.bool "sp got r30" true
    (r.Regalloc.reg_of.(p.Program.sp) = Some Reg.sp)

let ra_benchmarks_check () =
  List.iter
    (fun bench ->
      let prog = Synth.generate { (Spec92.params bench) with Synth.outer_trip = 10 } in
      let profile = Mcsim_trace.Walker.profile prog in
      List.iter
        (fun scheduler ->
          let c = Pipeline.compile ~profile ~scheduler prog in
          Regalloc.check c.Pipeline.alloc)
        [ Pipeline.Sched_none; Pipeline.default_local; Pipeline.Sched_round_robin ])
    [ Spec92.Compress; Spec92.Doduc ]

(* Build a program with far more simultaneously-live integer ranges than
   there are registers, forcing memory spills. *)
let high_pressure_program n =
  let b = Builder.create ~name:"pressure" in
  let lrs = List.init n (fun i -> Builder.fresh_lr b ~name:(Printf.sprintf "v%d" i) Il.Bank_int) in
  let defs = List.map (fun lr -> Il.instr ~op:Op.Int_other ~srcs:[] ~dst:lr ()) lrs in
  let sum = Builder.fresh_lr b ~name:"sum" Il.Bank_int in
  let first_use =
    match lrs with
    | a :: bb :: _ -> Il.instr ~op:Op.Int_other ~srcs:[ a; bb ] ~dst:sum ()
    | _ -> assert false
  in
  let uses =
    first_use
    :: List.map (fun lr -> Il.instr ~op:Op.Int_other ~srcs:[ sum; lr ] ~dst:sum ()) lrs
  in
  ignore (Builder.add_block b (defs @ uses) Il.Halt);
  Builder.finish b ~entry:0

let ra_spills_under_pressure () =
  let p = high_pressure_program 40 in
  let r = Regalloc.allocate p (Partition.none p) in
  Regalloc.check r;
  check Alcotest.bool "memory spills happened" true (r.Regalloc.spilled_lrs <> []);
  check Alcotest.bool "multiple rounds" true (r.Regalloc.rounds > 1);
  (* Spill code appears in the rewritten program. *)
  let has_loads =
    Array.exists
      (fun (blk : Program.block) ->
        Array.exists (fun i -> Op.equal i.Il.op Op.Load) blk.Program.instrs)
      r.Regalloc.prog.Program.blocks
  in
  check Alcotest.bool "loads inserted" true has_loads

let ra_cross_cluster_spill () =
  (* Constrain everything to cluster 0 (15 colors); 20 simultaneous live
     ranges overflow into cluster 1 before any memory spill. *)
  let p = high_pressure_program 20 in
  let part = Partition.none p in
  Array.iteri
    (fun lr _ ->
      if not part.Partition.global_candidate.(lr) then
        part.Partition.choice.(lr) <- Partition.Cluster 0)
    part.Partition.choice;
  let r = Regalloc.allocate p part in
  Regalloc.check r;
  check Alcotest.bool "cross-cluster spills used" true (r.Regalloc.cross_cluster <> []);
  check Alcotest.(list int) "no memory spills needed" [] r.Regalloc.spilled_lrs

let ra_partition_size_mismatch () =
  let p, _, _, _ = diamond_program () in
  let small =
    { Partition.clusters = 2; choice = [| Partition.Unconstrained |];
      global_candidate = [| false |] }
  in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Regalloc.allocate: partition size mismatch") (fun () ->
      ignore (Regalloc.allocate p small))

(* --------------------------- lowering ------------------------------ *)

let low_machine_program () =
  let p, _, _, _ = diamond_program () in
  let r = Regalloc.allocate p (Partition.none p) in
  let m = Lowering.lower r in
  check Alcotest.int "same block count" (Program.num_blocks p) (Mach_prog.num_blocks m);
  check Alcotest.int "same static size" (Program.num_static_instrs p)
    (Mach_prog.static_instrs m);
  (* Every lowered operand is an architectural register of the right bank. *)
  Array.iter
    (fun (blk : Mach_prog.block) ->
      Array.iter
        (fun mi ->
          List.iter
            (fun reg -> check Alcotest.bool "integer op, integer regs" true (Reg.is_int reg))
            (Mcsim_isa.Instr.regs mi.Mach_prog.mi))
        blk.Mach_prog.instrs)
    m.Mach_prog.blocks

let low_layout_pcs () =
  let p, _, _, _ = diamond_program () in
  let m = Lowering.lower (Regalloc.allocate p (Partition.none p)) in
  check Alcotest.int "entry at 0" 0 m.Mach_prog.block_pc.(0);
  check Alcotest.int "pc_of_slot" (m.Mach_prog.block_pc.(1) + 1)
    (Mach_prog.pc_of_slot m ~block:1 ~index:1)

(* --------------------------- pipeline ------------------------------ *)

let pipe_local_reduces_duals () =
  let prog = Synth.generate { (Spec92.params Spec92.Compress) with Synth.outer_trip = 50 } in
  let profile = Mcsim_trace.Walker.profile prog in
  let asg = Mcsim_cluster.Assignment.create ~num_clusters:2 () in
  let duals scheduler =
    let c = Pipeline.compile ~profile ~scheduler prog in
    snd (Pipeline.dual_distribution_count asg c.Pipeline.mach)
  in
  let d_none = duals Pipeline.Sched_none in
  let d_local = duals Pipeline.default_local in
  check Alcotest.bool
    (Printf.sprintf "local (%d) below none (%d)" d_local d_none)
    true (d_local < d_none)

let pipe_scheduler_names () =
  check Alcotest.string "none" "none" (Pipeline.scheduler_name Pipeline.Sched_none);
  check Alcotest.string "local" "local" (Pipeline.scheduler_name Pipeline.default_local);
  check Alcotest.string "rr" "round_robin" (Pipeline.scheduler_name Pipeline.Sched_round_robin)

let pipe_local_needs_profile () =
  let p, _, _, _ = diamond_program () in
  Alcotest.check_raises "missing profile"
    (Invalid_argument "Pipeline.compile: the local scheduler needs a profile") (fun () ->
      ignore (Pipeline.compile ~scheduler:Pipeline.default_local p))

let suite =
  ( "compiler",
    [ case "liveness: live sets" live_sets;
      case "liveness: interference" live_interference;
      case "liveness: def/use sites" live_sites;
      case "liveness: sp/gp excluded from the graph" live_sp_gp_excluded;
      Kit.qcheck live_cross_bank_never_interferes;
      case "list scheduler: respects dependences" ls_respects_dependences;
      case "list scheduler: hoists long latency ops" ls_hoists_long_latency;
      case "list scheduler: memory order kept" ls_keeps_memory_order;
      case "list scheduler: whole program" ls_whole_program_valid;
      Kit.qcheck ls_random_blocks_valid;
      case "partition: none" part_none;
      case "partition: round robin balanced" part_round_robin_balanced;
      case "partition: random deterministic" part_random_deterministic;
      case "local scheduler: Figure-6 block order" lsch_figure6_block_order;
      case "local scheduler: Figure-6 assignment order" lsch_figure6_assignment_order;
      case "local scheduler: assigns every live range" lsch_all_assigned;
      case "local scheduler: uses both clusters" lsch_balances_weighted_work;
      case "local scheduler: block-order tie breaking" lsch_block_order_ties;
      case "regalloc: color sets" ra_colors;
      case "regalloc: simple allocation" ra_simple_alloc;
      case "regalloc: benchmarks pass the checker" ra_benchmarks_check;
      case "regalloc: spills under pressure" ra_spills_under_pressure;
      case "regalloc: spill to the other cluster first" ra_cross_cluster_spill;
      case "regalloc: partition size mismatch" ra_partition_size_mismatch;
      case "lowering: machine program" low_machine_program;
      case "lowering: layout pcs" low_layout_pcs;
      case "pipeline: local scheduler reduces dual distribution" pipe_local_reduces_duals;
      case "pipeline: scheduler names" pipe_scheduler_names;
      case "pipeline: local requires a profile" pipe_local_needs_profile ] )
