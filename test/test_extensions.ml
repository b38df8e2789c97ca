(* Tests for the paper-§6 extensions: the loop unroller and the timeline
   renderer. *)

module Il = Mcsim_ir.Il
module Program = Mcsim_ir.Program
module Builder = Program.Builder
module Op = Mcsim_isa.Op_class
module Unroll = Mcsim_compiler.Unroll
module Branch_model = Mcsim_ir.Branch_model
module Mem_stream = Mcsim_ir.Mem_stream
module Machine = Mcsim_cluster.Machine

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* A self-loop with an iteration-local temp, a loop-carried accumulator,
   and a strided load. *)
let loop_program ~trip =
  let b = Builder.create ~name:"unrolltest" in
  let sp = Builder.sp b in
  let acc = Builder.fresh_lr b ~name:"acc" Il.Bank_int in
  let t = Builder.fresh_lr b ~name:"t" Il.Bank_int in
  let exit_blk = Builder.add_block b [] Il.Halt in
  let body = Builder.reserve_block b in
  Builder.define_block b body
    [ Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst:t
        ~mem:(Mem_stream.Stride { base = 0x1000; stride = 8; count = 64 }) ();
      Il.instr ~op:Op.Int_other ~srcs:[ t; t ] ~dst:t ();
      Il.instr ~op:Op.Int_other ~srcs:[ acc; t ] ~dst:acc () ]
    (Il.Cond { src = Some acc; model = Branch_model.Loop { trip }; taken = body;
               not_taken = exit_blk });
  let entry =
    Builder.add_block b
      [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:acc () ]
      (Il.Jump body)
  in
  Builder.finish b ~entry

let unroll_doubles_body () =
  let p = loop_program ~trip:20 in
  let p2 = Unroll.unroll ~factor:2 p in
  let body b = Array.length (b : Program.t).Program.blocks.(1).Program.instrs in
  check Alcotest.int "body doubled" (2 * body p) (body p2);
  check Alcotest.(list int) "the loop block was unrolled" [ 1 ] (Unroll.unrolled_blocks p p2)

let unroll_renames_locals_only () =
  let p = loop_program ~trip:20 in
  let p2 = Unroll.unroll ~factor:2 p in
  (* One fresh live range: t of the first replica (acc is carried and the
     last replica keeps original names). *)
  check Alcotest.int "one fresh live range" (Program.num_lrs p + 1) (Program.num_lrs p2);
  check Alcotest.string "named after its origin" "t.u0"
    (Program.lr_name p2 (Program.num_lrs p));
  (* The accumulator still threads through every replica. *)
  let accs =
    Array.to_list p2.Program.blocks.(1).Program.instrs
    |> List.filter (fun i -> List.mem 2 (Il.lrs_written i))
  in
  check Alcotest.int "acc written once per replica" 2 (List.length accs)

let unroll_halves_trip () =
  let p = loop_program ~trip:20 in
  let p2 = Unroll.unroll ~factor:2 p in
  match p2.Program.blocks.(1).Program.term with
  | Il.Cond { model = Branch_model.Loop { trip }; _ } -> check Alcotest.int "trip 10" 10 trip
  | _ -> Alcotest.fail "terminator changed shape"

let unroll_splits_strides () =
  let p = loop_program ~trip:20 in
  let p2 = Unroll.unroll ~factor:2 p in
  let strides =
    Array.to_list p2.Program.blocks.(1).Program.instrs
    |> List.filter_map (fun i -> i.Il.mem)
  in
  check Alcotest.bool "replica streams interleave" true
    (List.exists
       (function
         | Mem_stream.Stride { base = 0x1000; stride = 16; count = 32 } -> true
         | _ -> false)
       strides
    && List.exists
         (function
           | Mem_stream.Stride { base = 0x1008; stride = 16; count = 32 } -> true
           | _ -> false)
         strides)

let unroll_factor_one_identity () =
  let p = loop_program ~trip:20 in
  check Alcotest.bool "factor 1 is the identity" true (Unroll.unroll ~factor:1 p == p)

let unroll_short_trip_untouched () =
  let p = loop_program ~trip:3 in
  let p2 = Unroll.unroll ~factor:2 p in
  check Alcotest.(list int) "trip < 2*factor left alone" [] (Unroll.unrolled_blocks p p2)

let unroll_max_body_respected () =
  let p = loop_program ~trip:20 in
  let p2 = Unroll.unroll ~factor:2 ~max_body:2 p in
  check Alcotest.(list int) "body larger than max_body left alone" []
    (Unroll.unrolled_blocks p p2)

let unroll_bad_factor () =
  Alcotest.check_raises "factor 0" (Invalid_argument "Unroll.unroll: factor < 1") (fun () ->
      ignore (Unroll.unroll ~factor:0 (loop_program ~trip:20)))

let unroll_same_dynamic_work () =
  (* The unrolled program does the same per-iteration work: same body
     instruction count over the whole run (modulo the halved branches). *)
  let p = loop_program ~trip:40 in
  let p2 = Unroll.unroll ~factor:2 p in
  let body_instrs prog =
    let m =
      (Mcsim_compiler.Pipeline.compile ~scheduler:Mcsim_compiler.Pipeline.Sched_none prog)
        .Mcsim_compiler.Pipeline.mach
    in
    let tr = Mcsim_trace.Walker.trace_flat m in
    List.length
      (List.filter
         (fun i -> (Mcsim_isa.Flat_trace.instr tr i).Mcsim_isa.Instr.op <> Op.Control)
         (List.init (Mcsim_isa.Flat_trace.length tr) Fun.id))
  in
  check Alcotest.int "same non-control dynamic instructions" (body_instrs p) (body_instrs p2)

let unroll_machine_runs_clean () =
  let p = Unroll.unroll ~factor:4 (loop_program ~trip:64) in
  let profile = Mcsim_trace.Walker.profile p in
  let c = Mcsim_compiler.Pipeline.compile ~profile
            ~scheduler:Mcsim_compiler.Pipeline.default_local p in
  let trace = Mcsim_trace.Walker.trace_flat ~max_instrs:2_000 c.Mcsim_compiler.Pipeline.mach in
  let _, errors = Event_audit.run_audited (Machine.dual_cluster ()) trace in
  check Alcotest.(list string) "audit clean on unrolled code" [] errors

(* --------------------------- timeline ------------------------------ *)

let mk seq op srcs dst = Trace_kit.mk ~pc:seq op srcs dst

(* Run the machine with a timeline attached. *)
let record cfg trace =
  let t = Mcsim.Timeline.create () in
  let result = Machine.run_flat ~on_event:(Mcsim.Timeline.observer t) cfg trace in
  (t, result)

let timeline_basic () =
  let r = Mcsim_isa.Reg.int_reg in
  let trace =
    Trace_kit.of_list
      [ mk 0 Op.Int_other [] (Some (r 2)); mk 1 Op.Int_other [ r 2 ] (Some (r 4)) ]
  in
  let t, result = record (Machine.single_cluster ()) trace in
  let s = Mcsim.Timeline.render t in
  check Alcotest.bool "mentions both instructions" true
    (let has n = String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l > 2 && String.sub l 0 2 = "#" ^ string_of_int n) in
     has 0 && has 1);
  check Alcotest.bool "contains issue marks" true (String.contains s 'I');
  check Alcotest.bool "contains retire marks" true (String.contains s 'R');
  check Alcotest.int "run completed" 2 result.Machine.retired

let timeline_selection () =
  let r = Mcsim_isa.Reg.int_reg in
  let trace = Trace_kit.init 10 (fun i -> mk i Op.Int_other [] (Some (r (2 * (i mod 4))))) in
  let t, _ = record (Machine.single_cluster ()) trace in
  let s = Mcsim.Timeline.render ~first_seq:9 ~last_seq:9 t in
  check Alcotest.bool "only the selected row" true
    (not (String.split_on_char '\n' s |> List.exists (fun l ->
              String.length l > 2 && String.sub l 0 2 = "#0")))

let timeline_empty () =
  check Alcotest.string "no events" "(no events)\n"
    (Mcsim.Timeline.render (Mcsim.Timeline.create ()))

let timeline_dual_marks () =
  let r = Mcsim_isa.Reg.int_reg in
  let trace =
    Trace_kit.of_list
      [ mk 0 Op.Int_other [] (Some (r 2)); mk 1 Op.Int_other [] (Some (r 1));
        mk 2 Op.Int_other [ r 2; r 1 ] (Some (r 4)) ]
  in
  let t, _ = record (Machine.dual_cluster ()) trace in
  let s = Mcsim.Timeline.render t in
  check Alcotest.bool "master and slave rows present" true
    (let has sub =
       try ignore (Str.search_forward (Str.regexp_string sub) s 0); true
       with Not_found -> false
     in
     has "master" && has "slave")

let suite =
  ( "extensions",
    [ case "unroll: doubles the body" unroll_doubles_body;
      case "unroll: renames iteration-locals only" unroll_renames_locals_only;
      case "unroll: halves the trip count" unroll_halves_trip;
      case "unroll: splits strided streams" unroll_splits_strides;
      case "unroll: factor 1 is identity" unroll_factor_one_identity;
      case "unroll: short trips untouched" unroll_short_trip_untouched;
      case "unroll: max_body respected" unroll_max_body_respected;
      case "unroll: bad factor" unroll_bad_factor;
      case "unroll: preserves dynamic work" unroll_same_dynamic_work;
      case "unroll: audited machine run" unroll_machine_runs_clean;
      case "timeline: basic rendering" timeline_basic;
      case "timeline: row selection" timeline_selection;
      case "timeline: empty" timeline_empty;
      case "timeline: dual-distribution rows" timeline_dual_marks ] )
