(* Tests for Mcsim_workload: the synthetic generator and the six
   benchmark presets. *)

module Synth = Mcsim_workload.Synth
module Spec92 = Mcsim_workload.Spec92
module Program = Mcsim_ir.Program
module Il = Mcsim_ir.Il
module Op = Mcsim_isa.Op_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let small b = { (Spec92.params b) with Synth.outer_trip = 10 }

let all_presets_validate () =
  List.iter
    (fun b ->
      let p = Spec92.program b in
      (* generate already validates; re-validate to be explicit. *)
      Program.validate p;
      check Alcotest.bool "has blocks" true (Program.num_blocks p > 2))
    Spec92.all

let preset_names_roundtrip () =
  List.iter
    (fun b ->
      check Alcotest.bool "of_name inverts name" true
        (Spec92.of_name (Spec92.name b) = Some b))
    Spec92.all;
  check Alcotest.bool "unknown name" true (Spec92.of_name "nonesuch" = None)

let preset_descriptions () =
  List.iter
    (fun b -> check Alcotest.bool "non-empty description" true
        (String.length (Spec92.description b) > 20))
    Spec92.all

let generation_deterministic () =
  let a = Spec92.program Spec92.Ora and b = Spec92.program Spec92.Ora in
  check Alcotest.int "same block count" (Program.num_blocks a) (Program.num_blocks b);
  check Alcotest.int "same static size" (Program.num_static_instrs a)
    (Program.num_static_instrs b)

let int_benchmarks_have_no_fp () =
  List.iter
    (fun b ->
      let p = Spec92.program b in
      Array.iter
        (fun (blk : Program.block) ->
          Array.iter
            (fun i ->
              check Alcotest.bool "no fp ops in integer code" false
                (Op.is_fp i.Il.op))
            blk.Program.instrs)
        p.Program.blocks)
    [ Spec92.Compress; Spec92.Gcc1 ]

let fp_benchmarks_have_fp () =
  List.iter
    (fun b ->
      let p = Spec92.program b in
      let has_fp = ref false in
      Array.iter
        (fun (blk : Program.block) ->
          Array.iter (fun i -> if Op.is_fp i.Il.op then has_fp := true) blk.Program.instrs)
        p.Program.blocks;
      check Alcotest.bool (Spec92.name b ^ " has fp") true !has_fp)
    [ Spec92.Doduc; Spec92.Ora; Spec92.Su2cor; Spec92.Tomcatv ]

let mix_fractions_respected () =
  (* In the dynamic trace of ora, divides should appear at roughly the
     parameterized weight among body instructions. *)
  let prog = Spec92.program Spec92.Ora in
  let m = (Mcsim_compiler.Pipeline.compile ~scheduler:Mcsim_compiler.Pipeline.Sched_none prog)
            .Mcsim_compiler.Pipeline.mach in
  let tr = Mcsim_trace.Walker.trace_flat ~max_instrs:20_000 m in
  let divides = ref 0 and body = ref 0 in
  for i = 0 to Mcsim_isa.Flat_trace.length tr - 1 do
    match (Mcsim_isa.Flat_trace.instr tr i).Mcsim_isa.Instr.op with
    | Op.Fp_divide _ ->
      incr divides;
      incr body
    | Op.Control -> ()
    | _ -> incr body
  done;
  let frac = float_of_int !divides /. float_of_int !body in
  check Alcotest.bool (Printf.sprintf "divide fraction %.3f in [0.08,0.25]" frac) true
    (frac > 0.08 && frac < 0.25)

let gcc_has_large_static_footprint () =
  let sizes =
    List.map (fun b -> (b, Program.num_static_instrs (Spec92.program b))) Spec92.all
  in
  let gcc = List.assoc Spec92.Gcc1 sizes in
  check Alcotest.bool "gcc1 is the biggest program" true
    (List.for_all (fun (b, s) -> b = Spec92.Gcc1 || s <= gcc) sizes)

let vector_codes_have_long_blocks () =
  List.iter
    (fun b ->
      let p = Spec92.program b in
      let sizes =
        Array.to_list p.Program.blocks
        |> List.map (fun (blk : Program.block) -> Array.length blk.Program.instrs)
        |> List.filter (fun n -> n > 0)
      in
      let avg = float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (List.length sizes) in
      check Alcotest.bool (Spec92.name b ^ " long blocks") true (avg > 8.0))
    [ Spec92.Su2cor; Spec92.Tomcatv ]

let synth_validation_errors () =
  let base = small Spec92.Compress in
  let bad f = try ignore (Synth.generate (f base)); false with Invalid_argument _ -> true in
  check Alcotest.bool "zero segments" true (bad (fun p -> { p with Synth.n_segments = 0 }));
  check Alcotest.bool "block_max < block_min" true
    (bad (fun p -> { p with Synth.block_min = 5; block_max = 3 }));
  check Alcotest.bool "tiny pool vs communities" true
    (bad (fun p -> { p with Synth.int_pool = 3; n_communities = 2 }));
  check Alcotest.bool "bad fraction" true (bad (fun p -> { p with Synth.chain_bias = 1.5 }));
  check Alcotest.bool "empty mem kinds" true (bad (fun p -> { p with Synth.mem_kinds = [] }))

let mix_validation () =
  Alcotest.check_raises "all-zero mix" (Invalid_argument "Synth: all-zero mix") (fun () ->
      Synth.validate_mix
        { Synth.w_int_other = 0.0; w_int_multiply = 0.0; w_fp_other = 0.0; w_fp_divide = 0.0;
          w_load = 0.0; w_store = 0.0 })

let entry_defines_all_pools () =
  (* Every pool live range is written in the entry block, so no block can
     read an undefined value. *)
  let p = Spec92.program Spec92.Doduc in
  let entry = p.Program.blocks.(p.Program.entry) in
  let defined = Hashtbl.create 64 in
  Array.iter
    (fun i -> List.iter (fun lr -> Hashtbl.replace defined lr ()) (Il.lrs_written i))
    entry.Program.instrs;
  let live = Mcsim_compiler.Liveness.analyse p in
  List.iter
    (fun lr ->
      if lr <> p.Program.sp && lr <> p.Program.gp then
        check Alcotest.bool
          (Printf.sprintf "%s defined at entry" (Program.lr_name p lr))
          true (Hashtbl.mem defined lr))
    (Mcsim_compiler.Liveness.live_in live p.Program.entry |> List.filter (fun lr ->
         lr <> p.Program.sp && lr <> p.Program.gp))

let communities_limit_cross_traffic () =
  (* With p_cross_community = 0, an optimal 2-coloring exists; check the
     local scheduler finds a partition with markedly fewer dual
     distributions than round-robin. *)
  let params = { (small Spec92.Compress) with Synth.p_cross_community = 0.0 } in
  let prog = Synth.generate params in
  let profile = Mcsim_trace.Walker.profile prog in
  let asg = Mcsim_cluster.Assignment.create ~num_clusters:2 () in
  let duals scheduler =
    let c = Mcsim_compiler.Pipeline.compile ~profile ~scheduler prog in
    snd (Mcsim_compiler.Pipeline.dual_distribution_count asg c.Mcsim_compiler.Pipeline.mach)
  in
  let local = duals Mcsim_compiler.Pipeline.default_local in
  let rr = duals Mcsim_compiler.Pipeline.Sched_round_robin in
  check Alcotest.bool (Printf.sprintf "local %d < rr %d" local rr) true (local < rr)

let suite =
  ( "workload",
    [ case "presets validate" all_presets_validate;
      case "preset names roundtrip" preset_names_roundtrip;
      case "preset descriptions" preset_descriptions;
      case "generation is deterministic" generation_deterministic;
      case "integer benchmarks have no fp" int_benchmarks_have_no_fp;
      case "fp benchmarks have fp" fp_benchmarks_have_fp;
      case "ora divide fraction" mix_fractions_respected;
      case "gcc1 has the largest static footprint" gcc_has_large_static_footprint;
      case "vector codes have long blocks" vector_codes_have_long_blocks;
      case "generator validation errors" synth_validation_errors;
      case "mix validation" mix_validation;
      case "entry defines all pools" entry_defines_all_pools;
      case "communities limit cross traffic" communities_limit_cross_traffic ] )
