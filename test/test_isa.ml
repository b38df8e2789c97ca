(* Tests for Mcsim_isa: registers, opcode classes, instructions, and the
   Table-1 issue rules (their per-cycle budget as the machine's
   functional units count it). *)

module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class
module Instr = Mcsim_isa.Instr
module Issue_rules = Mcsim_isa.Issue_rules
module Fu = Mcsim_cluster.Machine.Fu

(* [Fu] takes the machine's dense op codes. *)
let code = Mcsim_cluster.Machine.Op_code.of_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------------------- regs -------------------------------- *)

let reg_basics () =
  check Alcotest.int "num_int" 32 Reg.num_int;
  check Alcotest.int "num_fp" 32 Reg.num_fp;
  check Alcotest.string "r7" "r7" (Reg.to_string (Reg.int_reg 7));
  check Alcotest.string "f12" "f12" (Reg.to_string (Reg.fp_reg 12));
  check Alcotest.bool "sp is r30" true (Reg.equal Reg.sp (Reg.int_reg 30));
  check Alcotest.bool "gp is r29" true (Reg.equal Reg.gp (Reg.int_reg 29))

let reg_zero () =
  check Alcotest.bool "r31 zero" true (Reg.is_zero Reg.zero_int);
  check Alcotest.bool "f31 zero" true (Reg.is_zero Reg.zero_fp);
  check Alcotest.bool "r30 not zero" false (Reg.is_zero Reg.sp)

let reg_range_checks () =
  Alcotest.check_raises "int 32" (Invalid_argument "Reg.int_reg: 32") (fun () ->
      ignore (Reg.int_reg 32));
  Alcotest.check_raises "fp -1" (Invalid_argument "Reg.fp_reg: -1") (fun () ->
      ignore (Reg.fp_reg (-1)))

let reg_flat_roundtrip () =
  List.iter
    (fun r ->
      check Alcotest.bool "roundtrip" true (Reg.equal r (Reg.of_flat_index (Reg.flat_index r))))
    Reg.all;
  check Alcotest.int "all has 64" 64 (List.length Reg.all)

let reg_parity () =
  check Alcotest.int "r4 even" 0 (Reg.parity (Reg.int_reg 4));
  check Alcotest.int "f9 odd" 1 (Reg.parity (Reg.fp_reg 9))

let reg_banks () =
  check Alcotest.bool "int" true (Reg.is_int (Reg.int_reg 3));
  check Alcotest.bool "fp" true (Reg.is_fp (Reg.fp_reg 3));
  check Alcotest.bool "not equal across banks" false
    (Reg.equal (Reg.int_reg 3) (Reg.fp_reg 3));
  check Alcotest.int "compare orders banks" (-1)
    (compare (Reg.compare (Reg.int_reg 31) (Reg.fp_reg 0)) 0)

(* -------------------------- op classes ----------------------------- *)

let op_latencies () =
  (* The exact Table-1 latency row. *)
  check Alcotest.int "int multiply" 6 (Op.latency Op.Int_multiply);
  check Alcotest.int "int other" 1 (Op.latency Op.Int_other);
  check Alcotest.int "fp divide 32" 8 (Op.latency (Op.Fp_divide { bits64 = false }));
  check Alcotest.int "fp divide 64" 16 (Op.latency (Op.Fp_divide { bits64 = true }));
  check Alcotest.int "fp other" 3 (Op.latency Op.Fp_other);
  check Alcotest.int "load (delay slot)" 2 (Op.latency Op.Load);
  check Alcotest.int "store" 1 (Op.latency Op.Store);
  check Alcotest.int "control" 1 (Op.latency Op.Control)

let op_pipelining () =
  check Alcotest.bool "divider unpipelined" false
    (Op.is_pipelined (Op.Fp_divide { bits64 = false }));
  List.iter
    (fun op ->
      if not (Op.equal op (Op.Fp_divide { bits64 = false }))
         && not (Op.equal op (Op.Fp_divide { bits64 = true }))
      then check Alcotest.bool (Op.to_string op ^ " pipelined") true (Op.is_pipelined op))
    Op.all

let op_predicates () =
  check Alcotest.bool "fp_other is fp" true (Op.is_fp Op.Fp_other);
  check Alcotest.bool "load not fp" false (Op.is_fp Op.Load);
  check Alcotest.bool "load memory" true (Op.is_memory Op.Load);
  check Alcotest.bool "store memory" true (Op.is_memory Op.Store);
  check Alcotest.bool "control not memory" false (Op.is_memory Op.Control)

let op_equal () =
  check Alcotest.bool "divide widths differ" false
    (Op.equal (Op.Fp_divide { bits64 = false }) (Op.Fp_divide { bits64 = true }));
  check Alcotest.bool "same class equal" true (Op.equal Op.Load Op.Load)

(* --------------------------- instr --------------------------------- *)

let instr_shapes () =
  let r = Reg.int_reg in
  let i = Instr.make ~op:Op.Int_other ~srcs:[ r 1; r 2 ] ~dst:(Some (r 3)) in
  check Alcotest.int "regs count" 3 (List.length (Instr.regs i));
  Alcotest.check_raises "store with dst"
    (Invalid_argument "Instr.make: store/control with destination") (fun () ->
      ignore (Instr.make ~op:Op.Store ~srcs:[ r 1 ] ~dst:(Some (r 2))));
  Alcotest.check_raises "load without dst"
    (Invalid_argument "Instr.make: load without destination") (fun () ->
      ignore (Instr.make ~op:Op.Load ~srcs:[ r 1 ] ~dst:None));
  Alcotest.check_raises "three sources"
    (Invalid_argument "Instr.make: more than two sources") (fun () ->
      ignore (Instr.make ~op:Op.Int_other ~srcs:[ r 1; r 2; r 3 ] ~dst:None))

let instr_named_regs () =
  let i =
    Instr.make ~op:Op.Int_other ~srcs:[ Reg.zero_int; Reg.int_reg 2 ]
      ~dst:(Some Reg.zero_int)
  in
  check Alcotest.int "zeros dropped" 1 (List.length (Instr.named_regs i));
  check Alcotest.int "regs keeps zeros" 3 (List.length (Instr.regs i))

(* ------------------------- issue rules ----------------------------- *)

let rules_table1_data () =
  let s = Issue_rules.single_cluster in
  check Alcotest.int "single total" 8 s.Issue_rules.total;
  check Alcotest.int "single int mul" 8 s.Issue_rules.int_multiply;
  check Alcotest.int "single int other" 8 s.Issue_rules.int_other;
  check Alcotest.int "single fp all" 4 s.Issue_rules.fp_all;
  check Alcotest.int "single fp div" 4 s.Issue_rules.fp_divide;
  check Alcotest.int "single fp other" 4 s.Issue_rules.fp_other;
  check Alcotest.int "single memory" 4 s.Issue_rules.memory;
  check Alcotest.int "single control" 4 s.Issue_rules.control;
  let d = Issue_rules.for_width 4 in
  check Alcotest.int "dual total" 4 d.Issue_rules.total;
  check Alcotest.int "dual int mul" 4 d.Issue_rules.int_multiply;
  check Alcotest.int "dual fp all" 2 d.Issue_rules.fp_all;
  check Alcotest.int "dual memory" 2 d.Issue_rules.memory;
  check Alcotest.int "dual control" 2 d.Issue_rules.control

(* The budget cases issue at cycle 0 through a fresh cluster's [Fu],
   where no divider is busy, so only the budget can refuse. *)
let rules_budget_total () =
  let b = Fu.create (Issue_rules.for_width 4) in
  for _ = 1 to 4 do
    check Alcotest.bool "can issue int" true (Fu.can_issue b ~cycle:0 (code Op.Int_other));
    Fu.issue b ~cycle:0 (code Op.Int_other)
  done;
  check Alcotest.bool "total exhausted" false (Fu.can_issue b ~cycle:0 (code Op.Int_other));
  check Alcotest.int "issued" 4 (Fu.issued_this_cycle b);
  Fu.new_cycle b;
  check Alcotest.bool "reset restores" true (Fu.can_issue b ~cycle:0 (code Op.Int_other))

let rules_fp_shared_cap () =
  let b = Fu.create Issue_rules.single_cluster in
  (* fp_all = 4 is shared between divides and other fp. *)
  Fu.issue b ~cycle:0 (code (Op.Fp_divide { bits64 = false }));
  Fu.issue b ~cycle:0 (code (Op.Fp_divide { bits64 = true }));
  Fu.issue b ~cycle:0 (code Op.Fp_other);
  Fu.issue b ~cycle:0 (code Op.Fp_other);
  check Alcotest.bool "fp_all cap reached" false (Fu.can_issue b ~cycle:0 (code Op.Fp_other));
  check Alcotest.bool "fp divide also capped" false
    (Fu.can_issue b ~cycle:0 (code (Op.Fp_divide { bits64 = false })));
  check Alcotest.bool "int still allowed" true (Fu.can_issue b ~cycle:0 (code Op.Int_other))

let rules_memory_cap () =
  let b = Fu.create (Issue_rules.for_width 4) in
  Fu.issue b ~cycle:0 (code Op.Load);
  Fu.issue b ~cycle:0 (code Op.Store);
  check Alcotest.bool "memory cap is loads+stores" false (Fu.can_issue b ~cycle:0 (code Op.Load))

let rules_over_budget_raises () =
  let b = Fu.create (Issue_rules.for_width 4) in
  Fu.issue b ~cycle:0 (code Op.Control);
  Fu.issue b ~cycle:0 (code Op.Control);
  Alcotest.check_raises "issue over budget" (Invalid_argument "Fu.issue: cannot issue")
    (fun () -> Fu.issue b ~cycle:0 (code Op.Control))

(* The width rule reproduces Table 1's rows and the split discipline's
   narrower clusters: integer caps at the full width, the others at half,
   never below 1. *)
let rules_scale () =
  let limits = Alcotest.testable Issue_rules.pp ( = ) in
  let caps total ~half =
    { Issue_rules.total; int_multiply = total; int_other = total; fp_all = half;
      fp_divide = half; fp_other = half; memory = half; control = half }
  in
  check limits "width 8 is row 1" (caps 8 ~half:4) (Issue_rules.for_width 8);
  check limits "row 1 is the data" Issue_rules.single_cluster (Issue_rules.for_width 8);
  check limits "width 4 is row 2" (caps 4 ~half:2) (Issue_rules.for_width 4);
  check limits "width 2: one cluster of four" (caps 2 ~half:1) (Issue_rules.for_width 2);
  check limits "width 1: one cluster of eight" (caps 1 ~half:1) (Issue_rules.for_width 1);
  Alcotest.check_raises "width 0" (Invalid_argument "Issue_rules.for_width") (fun () ->
      ignore (Issue_rules.for_width 0))

let rules_to_rows () =
  check Alcotest.(list string) "row cells"
    [ "8"; "8"; "8"; "4"; "4"; "4"; "4"; "4" ]
    (Issue_rules.to_rows Issue_rules.single_cluster)

let suite =
  ( "isa",
    [ case "reg: basics" reg_basics;
      case "reg: hardwired zeros" reg_zero;
      case "reg: range checks" reg_range_checks;
      case "reg: flat index roundtrip" reg_flat_roundtrip;
      case "reg: parity" reg_parity;
      case "reg: banks" reg_banks;
      case "op: Table-1 latencies" op_latencies;
      case "op: divider is the only unpipelined unit" op_pipelining;
      case "op: predicates" op_predicates;
      case "op: equality" op_equal;
      case "instr: shape validation" instr_shapes;
      case "instr: named_regs drops zeros" instr_named_regs;
      case "issue rules: Table-1 numbers" rules_table1_data;
      case "issue rules: total budget" rules_budget_total;
      case "issue rules: shared fp cap" rules_fp_shared_cap;
      case "issue rules: memory cap" rules_memory_cap;
      case "issue rules: over budget raises" rules_over_budget_raises;
      case "issue rules: scale" rules_scale;
      case "issue rules: table rows" rules_to_rows ] )
