(* Tests for the machine's rename/scoreboard register file and its
   functional-unit tracker. *)

module Regfile = Mcsim_cluster.Machine.Regfile
module Fu = Mcsim_cluster.Machine.Fu
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class
module Issue_rules = Mcsim_isa.Issue_rules

(* [Fu] takes the machine's dense op codes. *)
let code = Mcsim_cluster.Machine.Op_code.of_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* [Regfile.rename_packed]'s result unpacked: [Some (new_phys, prev_phys)],
   or [None] when the bank's freelist is empty. *)
let rename rf reg =
  let packed = Regfile.rename_packed rf reg in
  if packed < 0 then None else Some (packed lsr 16, packed land 0xffff)

(* --------------------------- regfile ------------------------------- *)

let rf_initial_state () =
  let rf = Regfile.create ~num_phys:64 in
  check Alcotest.int "32 int free initially" 32 (Regfile.free_count rf Regfile.B_int);
  check Alcotest.int "32 fp free initially" 32 (Regfile.free_count rf Regfile.B_fp);
  let p = Regfile.lookup rf (Reg.int_reg 5) in
  check Alcotest.int "initial mapping ready at 0" 0 (Regfile.ready_at rf Regfile.B_int p)

let rf_rename_cycle () =
  let rf = Regfile.create ~num_phys:64 in
  let r5 = Reg.int_reg 5 in
  let old = Regfile.lookup rf r5 in
  let np, prev = Option.get (rename rf r5) in
  check Alcotest.int "prev is the old mapping" old prev;
  check Alcotest.int "lookup follows rename" np (Regfile.lookup rf r5);
  check Alcotest.int "not ready until producer issues" max_int
    (Regfile.ready_at rf Regfile.B_int np);
  Regfile.set_ready rf Regfile.B_int np 7;
  check Alcotest.int "ready cycle set" 7 (Regfile.ready_at rf Regfile.B_int np);
  (* Retire: the previous mapping is released. *)
  Regfile.release rf Regfile.B_int prev;
  check Alcotest.int "free count restored" 32 (Regfile.free_count rf Regfile.B_int)

let rf_undo_rename () =
  let rf = Regfile.create ~num_phys:64 in
  let r2 = Reg.int_reg 2 in
  let old = Regfile.lookup rf r2 in
  let np, prev = Option.get (rename rf r2) in
  Regfile.undo_rename rf Regfile.B_int (Reg.index r2) ~new_phys:np ~prev_phys:prev;
  check Alcotest.int "mapping restored" old (Regfile.lookup rf r2);
  check Alcotest.int "physical register freed" 32 (Regfile.free_count rf Regfile.B_int)

let rf_exhaustion () =
  let rf = Regfile.create ~num_phys:33 in
  (* One spare physical register per bank. *)
  let r0 = Reg.int_reg 0 in
  check Alcotest.bool "first rename ok" true (rename rf r0 <> None);
  check Alcotest.(option (pair int int)) "second rename fails" None
    (rename rf (Reg.int_reg 1))

let rf_banks_independent () =
  let rf = Regfile.create ~num_phys:34 in
  ignore (Option.get (rename rf (Reg.int_reg 0)));
  ignore (Option.get (rename rf (Reg.int_reg 1)));
  check Alcotest.int "int exhausted" 0 (Regfile.free_count rf Regfile.B_int);
  check Alcotest.int "fp untouched" 2 (Regfile.free_count rf Regfile.B_fp);
  check Alcotest.bool "fp rename still ok" true (rename rf (Reg.fp_reg 0) <> None)

let rf_zero_rejected () =
  let rf = Regfile.create ~num_phys:64 in
  Alcotest.check_raises "lookup zero" (Invalid_argument "Regfile.lookup: zero register")
    (fun () -> ignore (Regfile.lookup rf Reg.zero_int));
  Alcotest.check_raises "rename zero"
    (Invalid_argument "Regfile.rename_packed: zero register") (fun () ->
      ignore (Regfile.rename_packed rf Reg.zero_fp))

let rf_bank_of_reg () =
  check Alcotest.bool "int reg" true (Regfile.bank_of_reg (Reg.int_reg 3) = Regfile.B_int);
  check Alcotest.bool "fp reg" true (Regfile.bank_of_reg (Reg.fp_reg 3) = Regfile.B_fp)

(* ------------------------------ fu --------------------------------- *)

let fu_budget_resets () =
  let fu = Fu.create (Issue_rules.for_width 4) in
  Fu.new_cycle fu;
  for _ = 1 to 4 do Fu.issue fu ~cycle:0 (code Op.Int_other) done;
  check Alcotest.bool "budget exhausted" false (Fu.can_issue fu ~cycle:0 (code Op.Int_other));
  Fu.new_cycle fu;
  check Alcotest.bool "new cycle restores budget" true (Fu.can_issue fu ~cycle:1 (code Op.Int_other));
  check Alcotest.int "cumulative count" 4 (Fu.total_issued fu);
  check Alcotest.int "per class" 4 (Fu.issued_of_class fu (code Op.Int_other))

let fu_divider_occupancy () =
  (* dual cluster: fp_divide cap 2 => two dividers. *)
  let fu = Fu.create (Issue_rules.for_width 4) in
  Fu.new_cycle fu;
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = false }));
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = false }));
  Fu.new_cycle fu;
  check Alcotest.bool "both dividers busy next cycle" false
    (Fu.can_issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = false })));
  check Alcotest.bool "still busy at 7" false
    (Fu.can_issue fu ~cycle:7 (code (Op.Fp_divide { bits64 = false })));
  check Alcotest.bool "free again at 8" true
    (Fu.can_issue fu ~cycle:8 (code (Op.Fp_divide { bits64 = false })))

let fu_divider_64bit () =
  let fu = Fu.create Issue_rules.single_cluster in
  Fu.new_cycle fu;
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = true }));
  Fu.new_cycle fu;
  (* Single cluster has four dividers; one busy leaves three. *)
  check Alcotest.bool "other dividers available" true
    (Fu.can_issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = true })));
  Fu.issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = true }));
  Fu.issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = true }));
  Fu.issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = true }));
  Fu.new_cycle fu;
  check Alcotest.bool "all four busy" false
    (Fu.can_issue fu ~cycle:2 (code (Op.Fp_divide { bits64 = true })));
  check Alcotest.bool "first frees at 16" true
    (Fu.can_issue fu ~cycle:16 (code (Op.Fp_divide { bits64 = true })))

let fu_clear_divider () =
  let fu = Fu.create (Issue_rules.for_width 4) in
  Fu.new_cycle fu;
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = true }));
  Fu.clear_divider fu;
  Fu.new_cycle fu;
  check Alcotest.bool "cleared divider is free" true
    (Fu.can_issue fu ~cycle:1 (code (Op.Fp_divide { bits64 = true })))

let fu_issue_over_budget_raises () =
  let fu = Fu.create (Issue_rules.for_width 4) in
  Fu.new_cycle fu;
  for _ = 1 to 2 do Fu.issue fu ~cycle:0 (code Op.Load) done;
  Alcotest.check_raises "over budget" (Invalid_argument "Fu.issue: cannot issue") (fun () ->
      Fu.issue fu ~cycle:0 (code Op.Store))

let fu_divide_widths_pooled () =
  let fu = Fu.create Issue_rules.single_cluster in
  Fu.new_cycle fu;
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = false }));
  Fu.issue fu ~cycle:0 (code (Op.Fp_divide { bits64 = true }));
  check Alcotest.int "both widths counted together" 2
    (Fu.issued_of_class fu (code (Op.Fp_divide { bits64 = false })))

let suite =
  ( "cpu",
    [ case "regfile: initial state" rf_initial_state;
      case "regfile: rename/ready/release cycle" rf_rename_cycle;
      case "regfile: undo rename" rf_undo_rename;
      case "regfile: freelist exhaustion" rf_exhaustion;
      case "regfile: banks independent" rf_banks_independent;
      case "regfile: zero registers rejected" rf_zero_rejected;
      case "regfile: bank_of_reg" rf_bank_of_reg;
      case "fu: per-cycle budget" fu_budget_resets;
      case "fu: divider occupancy" fu_divider_occupancy;
      case "fu: 64-bit divides and divider count" fu_divider_64bit;
      case "fu: clear_divider" fu_clear_divider;
      case "fu: over budget raises" fu_issue_over_budget_raises;
      case "fu: divide widths pooled in stats" fu_divide_widths_pooled ] )
