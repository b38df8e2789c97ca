(* Tests for the textual machine-program format: round trips, hand-written
   sources, and error reporting. *)

module Mach_text = Mcsim_compiler.Mach_text
module Mach_prog = Mcsim_compiler.Mach_prog
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Synth = Mcsim_workload.Synth

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let compile b =
  let prog = Synth.generate { (Spec92.params b) with Synth.outer_trip = 10 } in
  let profile = Mcsim_trace.Walker.profile prog in
  (Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog).Pipeline.mach

let roundtrip_benchmarks () =
  List.iter
    (fun b ->
      let m = compile b in
      let text = Mach_text.print m in
      match Mach_text.parse text with
      | Error e -> Alcotest.failf "%s failed to parse: %s" (Spec92.name b) e
      | Ok m' ->
        check Alcotest.bool (Spec92.name b ^ " round trips") true (Mach_text.equal m m');
        check Alcotest.string (Spec92.name b ^ " print is a fixpoint") text
          (Mach_text.print m'))
    Spec92.all

let roundtrip_preserves_traces () =
  let m = compile Spec92.Compress in
  match Mach_text.parse (Mach_text.print m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    let ta = Mcsim_trace.Walker.trace_flat ~seed:4 ~max_instrs:3_000 m in
    let tb = Mcsim_trace.Walker.trace_flat ~seed:4 ~max_instrs:3_000 m' in
    Trace_kit.check_equal "same trace" ta tb

let hand_written () =
  let src =
    {|program "kernel" entry 1

block 0:
  halt
block 1:
  r2 <- int_other r2, r4
  f0 <- load r30 [stride 0x10000 +8 x4096]
  store f0, r30 [fixed 0x2000]
  cond r2 loop(100) -> 1, 0
|}
  in
  match Mach_text.parse src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    check Alcotest.string "name" "kernel" m.Mach_prog.name;
    check Alcotest.int "entry" 1 m.Mach_prog.entry;
    check Alcotest.int "blocks" 2 (Mach_prog.num_blocks m);
    check Alcotest.int "static instrs (3 body + cond)" 4 (Mach_prog.static_instrs m);
    (* And it runs. *)
    let tr = Mcsim_trace.Walker.trace_flat ~max_instrs:500 m in
    let r = Mcsim_cluster.Machine.run_flat (Mcsim_cluster.Machine.dual_cluster ()) tr in
    check Alcotest.int "trace runs" (Mcsim_isa.Flat_trace.length tr)
      r.Mcsim_cluster.Machine.retired

let all_models_and_streams () =
  let src =
    {|program "models" entry 0
block 0:
  r0 <- load r30 [uniform 0x1000 4096]
  r2 <- load r30 [mixed 0x0 64 0x4000 8192 0.25]
  f2 <- fp_divide64 f0, f0
  cond bernoulli(0.25) -> 0, 1
block 1:
  r4 <- int_multiply r0, r2
  cond r4 pattern(TNT) -> 2, 0
block 2:
  control
  cond r4 correlated(0.7,0.5) -> 2, 3
block 3:
  halt
|}
  in
  match Mach_text.parse src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let text = Mach_text.print m in
    (match Mach_text.parse text with
    | Error e -> Alcotest.fail ("reparse: " ^ e)
    | Ok m' -> check Alcotest.bool "round trips" true (Mach_text.equal m m'))

let parse_errors () =
  let bad src needle =
    match Mach_text.parse src with
    | Ok _ -> Alcotest.failf "expected a parse error (%s)" needle
    | Error e ->
      check Alcotest.bool
        (Printf.sprintf "error %S mentions %S" e needle)
        true
        (try ignore (Str.search_forward (Str.regexp_string needle) e 0); true
         with Not_found -> false)
  in
  bad "program \"x\" entry 0\nblock 0:\n  r9 <- blah r1\n  halt\n" "opcode";
  bad "program \"x\" entry 0\nblock 0:\n  r99 <- int_other r1\n  halt\n" "register";
  bad "program \"x\" entry 0\nblock 0:\n  r2 <- int_other r1\n" "terminator";
  bad "program \"x\" entry 0\n  r2 <- int_other r1\n" "outside";
  bad "program \"x\" entry 0\nblock 0:\n  jump -> 7\n" "target";
  bad "program \"x\" entry 0\nblock 5:\n  halt\n" "consecutive"

let suite =
  ( "format",
    [ case "round trips all six benchmarks" roundtrip_benchmarks;
      case "round trip preserves traces" roundtrip_preserves_traces;
      case "hand-written source" hand_written;
      case "all models and streams" all_models_and_streams;
      case "parse errors" parse_errors ] )
