module Issue_rules = Mcsim_isa.Issue_rules
module Op = Mcsim_isa.Op_class

let latency_row =
  [ "latency in cycles";
    string_of_int (Op.latency Op.Int_multiply);
    string_of_int (Op.latency Op.Int_other);
    "-";
    Printf.sprintf "%d/%d"
      (Op.latency (Op.Fp_divide { bits64 = false }))
      (Op.latency (Op.Fp_divide { bits64 = true }));
    string_of_int (Op.latency Op.Fp_other);
    Printf.sprintf "%d*" (Op.latency Op.Load);
    string_of_int (Op.latency Op.Control) ]

let rule_row name (l : Issue_rules.limits) =
  [ name;
    string_of_int l.Issue_rules.int_multiply;
    string_of_int l.Issue_rules.int_other;
    string_of_int l.Issue_rules.fp_all;
    string_of_int l.Issue_rules.fp_divide;
    string_of_int l.Issue_rules.fp_other;
    string_of_int l.Issue_rules.memory;
    string_of_int l.Issue_rules.control;
    Printf.sprintf "(total %d)" l.Issue_rules.total ]

let table1 () =
  let header =
    [ "#"; "int mul"; "int other"; "fp all"; "fp div"; "fp other"; "ld/st"; "control"; "" ]
  in
  let rows =
    [ header;
      rule_row "1 single, per cycle" (Issue_rules.for_width 8);
      rule_row "2 dual, per cluster" (Issue_rules.for_width 4);
      latency_row ]
  in
  Mcsim_util.Text_table.render rows
  ^ "* one load-delay slot: load-to-use latency is 2 cycles on a hit.\n\
     The fp divider is unpipelined (8-cycle 32-bit, 16-cycle 64-bit divides).\n"
