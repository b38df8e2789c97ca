(* Tests for Mcsim_ir: branch models, memory streams, IL, programs and
   profiles. *)

module Il = Mcsim_ir.Il
module Program = Mcsim_ir.Program
module Profile = Mcsim_ir.Profile
module Branch_model = Mcsim_ir.Branch_model
module Mem_stream = Mcsim_ir.Mem_stream
module Op = Mcsim_isa.Op_class
module Rng = Mcsim_util.Rng
module Builder = Program.Builder

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ------------------------- branch models --------------------------- *)

let bm_loop () =
  let st = Branch_model.init (Branch_model.Loop { trip = 4 }) in
  let rng = Rng.create 1 in
  let outcomes = List.init 8 (fun _ -> Branch_model.next st rng) in
  check Alcotest.(list bool) "taken 3, not-taken 1, repeating"
    [ true; true; true; false; true; true; true; false ]
    outcomes

let bm_loop_trip1 () =
  let st = Branch_model.init (Branch_model.Loop { trip = 1 }) in
  let rng = Rng.create 1 in
  check Alcotest.bool "trip 1 never taken" false (Branch_model.next st rng)

let bm_pattern () =
  let st = Branch_model.init (Branch_model.Pattern [| true; false; false |]) in
  let rng = Rng.create 1 in
  let outcomes = List.init 6 (fun _ -> Branch_model.next st rng) in
  check Alcotest.(list bool) "periodic" [ true; false; false; true; false; false ] outcomes

let bm_taken_prob_extremes () =
  let rng = Rng.create 2 in
  let always = Branch_model.init (Branch_model.Taken_prob 1.0) in
  let never = Branch_model.init (Branch_model.Taken_prob 0.0) in
  for _ = 1 to 50 do
    check Alcotest.bool "always taken" true (Branch_model.next always rng);
    check Alcotest.bool "never taken" false (Branch_model.next never rng)
  done

let bm_correlated_repeats () =
  let st =
    Branch_model.init (Branch_model.Correlated { p_repeat = 1.0; p_taken_init = 1.0 })
  in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    check Alcotest.bool "p_repeat 1.0 repeats forever" true (Branch_model.next st rng)
  done

let bm_reset () =
  let st = Branch_model.init (Branch_model.Loop { trip = 3 }) in
  let rng = Rng.create 4 in
  let first = List.init 5 (fun _ -> Branch_model.next st rng) in
  Branch_model.reset st;
  let second = List.init 5 (fun _ -> Branch_model.next st rng) in
  check Alcotest.(list bool) "reset restarts the pattern" first second

let bm_validate () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Branch_model: Taken_prob out of [0,1]") (fun () ->
      Branch_model.validate (Branch_model.Taken_prob 1.5));
  Alcotest.check_raises "trip 0" (Invalid_argument "Branch_model: Loop trip < 1") (fun () ->
      Branch_model.validate (Branch_model.Loop { trip = 0 }));
  Alcotest.check_raises "empty pattern" (Invalid_argument "Branch_model: empty Pattern")
    (fun () -> Branch_model.validate (Branch_model.Pattern [||]))

(* -------------------------- mem streams ---------------------------- *)

let ms_fixed () =
  let st = Mem_stream.init (Mem_stream.Fixed { addr = 4096 }) in
  let rng = Rng.create 1 in
  for _ = 1 to 5 do
    check Alcotest.int "fixed address" 4096 (Mem_stream.next st rng)
  done

let ms_stride_wraps () =
  let st = Mem_stream.init (Mem_stream.Stride { base = 100; stride = 8; count = 3 }) in
  let rng = Rng.create 1 in
  let addrs = List.init 7 (fun _ -> Mem_stream.next st rng) in
  check Alcotest.(list int) "wraps after count" [ 100; 108; 116; 100; 108; 116; 100 ] addrs

let ms_uniform_range () =
  let st = Mem_stream.init (Mem_stream.Uniform { base = 1000; size = 80 }) in
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let a = Mem_stream.next st rng in
    if a < 1000 || a >= 1080 then Alcotest.failf "out of region: %d" a;
    if a mod 8 <> 0 then Alcotest.failf "unaligned: %d" a
  done

let ms_mixed_regions () =
  let st =
    Mem_stream.init
      (Mem_stream.Mixed
         { hot_base = 0; hot_size = 64; cold_base = 10_000; cold_size = 64; p_hot = 0.5 })
  in
  let rng = Rng.create 3 in
  let hot = ref 0 and cold = ref 0 in
  for _ = 1 to 2000 do
    let a = Mem_stream.next st rng in
    if a < 64 then incr hot
    else if a >= 10_000 && a < 10_064 then incr cold
    else Alcotest.failf "outside both regions: %d" a
  done;
  check Alcotest.bool "both regions hit" true (!hot > 500 && !cold > 500)

let ms_reset () =
  let st = Mem_stream.init (Mem_stream.Stride { base = 0; stride = 4; count = 10 }) in
  let rng = Rng.create 4 in
  ignore (Mem_stream.next st rng);
  ignore (Mem_stream.next st rng);
  Mem_stream.reset st;
  check Alcotest.int "reset restarts stride" 0 (Mem_stream.next st rng)

let ms_validate () =
  Alcotest.check_raises "bad stride" (Invalid_argument "Mem_stream: bad Stride") (fun () ->
      Mem_stream.validate (Mem_stream.Stride { base = 0; stride = 8; count = 0 }));
  Alcotest.check_raises "bad uniform" (Invalid_argument "Mem_stream: bad Uniform") (fun () ->
      Mem_stream.validate (Mem_stream.Uniform { base = 0; size = 4 }))

(* ------------------------------ IL --------------------------------- *)

let il_shape_checks () =
  Alcotest.check_raises "load without stream"
    (Invalid_argument "Il.instr: memory op without stream") (fun () ->
      ignore (Il.instr ~op:Op.Load ~srcs:[ 0 ] ~dst:1 ()));
  Alcotest.check_raises "stream on alu"
    (Invalid_argument "Il.instr: stream on non-memory op") (fun () ->
      ignore
        (Il.instr ~op:Op.Int_other ~srcs:[ 0 ] ~dst:1
           ~mem:(Mem_stream.Fixed { addr = 0 }) ()))

let il_lr_lists () =
  let i = Il.instr ~op:Op.Int_other ~srcs:[ 3; 4 ] ~dst:5 () in
  check Alcotest.(list int) "reads" [ 3; 4 ] (Il.lrs_read i);
  check Alcotest.(list int) "writes" [ 5 ] (Il.lrs_written i);
  check Alcotest.(list int) "all" [ 3; 4; 5 ] (Il.lrs_of_instr i)

(* --------------------------- programs ------------------------------ *)

let tiny_program () =
  let b = Builder.create ~name:"tiny" in
  let x = Builder.fresh_lr b ~name:"x" Il.Bank_int in
  let y = Builder.fresh_lr b ~name:"y" Il.Bank_int in
  let blk1 = Builder.reserve_block b in
  let exit_blk = Builder.add_block b [] Il.Halt in
  Builder.define_block b blk1
    [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:x ();
      Il.instr ~op:Op.Int_other ~srcs:[ x ] ~dst:y () ]
    (Il.Cond
       { src = Some y; model = Branch_model.Loop { trip = 3 }; taken = blk1;
         not_taken = exit_blk });
  Builder.finish b ~entry:blk1

let prog_builder_basics () =
  let p = tiny_program () in
  check Alcotest.int "blocks" 2 (Program.num_blocks p);
  check Alcotest.int "lrs (sp, gp, x, y)" 4 (Program.num_lrs p);
  check Alcotest.string "lr name" "x" (Program.lr_name p 2);
  check Alcotest.int "static instrs (2 body + cond)" 3 (Program.num_static_instrs p)

let prog_builder_errors () =
  let b = Builder.create ~name:"bad" in
  let blk = Builder.reserve_block b in
  Alcotest.check_raises "undefined block"
    (Invalid_argument "Builder.finish: block 0 undefined") (fun () ->
      ignore (Builder.finish b ~entry:blk));
  Builder.define_block b blk [] Il.Halt;
  Alcotest.check_raises "double define"
    (Invalid_argument "Builder.define_block: already defined") (fun () ->
      Builder.define_block b blk [] Il.Halt)

let prog_validate_bank () =
  let b = Builder.create ~name:"bank" in
  let f = Builder.fresh_lr b ~name:"f" Il.Bank_fp in
  let g = Builder.fresh_lr b ~name:"g" Il.Bank_fp in
  (* An integer add over fp live ranges must be rejected. *)
  ignore (Builder.add_block b [ Il.instr ~op:Op.Int_other ~srcs:[ f ] ~dst:g () ] Il.Halt);
  (try
     ignore (Builder.finish b ~entry:0);
     Alcotest.fail "expected bank violation"
   with Invalid_argument msg ->
     check Alcotest.bool "mentions bank" true
       (String.length msg > 0
       && String.index_opt msg 'b' <> None))

let prog_validate_target () =
  let b = Builder.create ~name:"target" in
  ignore (Builder.add_block b [] (Il.Jump 7));
  try
    ignore (Builder.finish b ~entry:0);
    Alcotest.fail "expected bad target"
  with Invalid_argument _ -> ()

let prog_cfg_utils () =
  let p = tiny_program () in
  check Alcotest.(list int) "succ of 0" [ 0; 1 ] (Program.successors p 0);
  check Alcotest.(list int) "preds of 1" [ 0 ] (Program.preds p).(1);
  check Alcotest.(list int) "preds of 0 (self loop)" [ 0 ] (Program.preds p).(0);
  check Alcotest.(list int) "rpo" [ 0; 1 ] (Program.reverse_postorder p);
  check Alcotest.bool "all reachable" true (Array.for_all Fun.id (Program.reachable p))

let prog_layout () =
  let p = tiny_program () in
  let l = Program.layout p in
  check Alcotest.int "block 0 at pc 0" 0 l.Program.block_pc.(0);
  check Alcotest.int "block 0 has 3 slots" 3 l.Program.block_slots.(0);
  check Alcotest.int "terminator pc" 2 l.Program.term_pc.(0);
  check Alcotest.int "block 1 follows" 3 l.Program.block_pc.(1);
  check Alcotest.int "halt emits no slot" (-1) l.Program.term_pc.(1)

let profile_basics () =
  let pr = Profile.create ~num_blocks:3 in
  Profile.bump pr 1;
  Profile.bump pr 1;
  Profile.bump pr 2;
  check (Alcotest.float 1e-9) "count" 2.0 (Profile.count pr 1);
  check (Alcotest.float 1e-9) "total" 3.0 (Profile.total pr);
  check Alcotest.int "blocks" 3 (Profile.num_blocks pr);
  let pr2 = Profile.of_counts [| 5.0; 1.0 |] in
  check (Alcotest.float 1e-9) "of_counts" 5.0 (Profile.count pr2 0)

(* qcheck: on random synthetic programs, preds and successors agree. *)
let prog_edges_consistent =
  QCheck.Test.make ~name:"preds/successors are mutually consistent" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let params =
        { Mcsim_workload.Synth.name = "edge"; seed;
          n_segments = 4; p_diamond = 0.5; p_inner_loop = 0.2;
          inner_trip_min = 2; inner_trip_max = 5; outer_trip = 10;
          block_min = 1; block_max = 3;
          int_pool = 6; fp_pool = 0; n_communities = 2; p_cross_community = 0.2;
          mix =
            { Mcsim_workload.Synth.w_int_other = 1.0; w_int_multiply = 0.0; w_fp_other = 0.0;
              w_fp_divide = 0.0; w_load = 0.0; w_store = 0.0 };
          chain_bias = 0.5; fp64_div_frac = 0.0; mem_fp_frac = 0.0; sp_base_frac = 0.0;
          mem_kinds = [ (1.0, Mcsim_workload.Synth.Stack_slots { slots = 4 }) ];
          branch_style = Mcsim_workload.Synth.Biased 0.5 }
      in
      let p = Mcsim_workload.Synth.generate params in
      let preds = Program.preds p in
      let ok = ref true in
      for b = 0 to Program.num_blocks p - 1 do
        List.iter
          (fun s -> if not (List.mem b preds.(s)) then ok := false)
          (Program.successors p b);
        List.iter
          (fun pr -> if not (List.mem b (Program.successors p pr)) then ok := false)
          preds.(b)
      done;
      !ok)

let suite =
  ( "ir",
    [ case "branch model: loop trip semantics" bm_loop;
      case "branch model: trip-1 loop" bm_loop_trip1;
      case "branch model: periodic pattern" bm_pattern;
      case "branch model: probability extremes" bm_taken_prob_extremes;
      case "branch model: fully correlated" bm_correlated_repeats;
      case "branch model: reset" bm_reset;
      case "branch model: validation" bm_validate;
      case "mem stream: fixed" ms_fixed;
      case "mem stream: stride wraps" ms_stride_wraps;
      case "mem stream: uniform range and alignment" ms_uniform_range;
      case "mem stream: mixed regions" ms_mixed_regions;
      case "mem stream: reset" ms_reset;
      case "mem stream: validation" ms_validate;
      case "il: shape checks" il_shape_checks;
      case "il: lr lists" il_lr_lists;
      case "program: builder basics" prog_builder_basics;
      case "program: builder errors" prog_builder_errors;
      case "program: bank validation" prog_validate_bank;
      case "program: target validation" prog_validate_target;
      case "program: cfg utilities" prog_cfg_utils;
      case "program: layout" prog_layout;
      case "profile: counts" profile_basics;
      Kit.qcheck prog_edges_consistent ] )
