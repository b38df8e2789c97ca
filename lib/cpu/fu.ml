type t = {
  budget : Mcsim_isa.Issue_rules.budget;
  dividers : int array;  (* per-divider first free cycle *)
  mutable n_total : int;
  counts : int array;  (* cumulative issues per class slot, divide widths pooled *)
}

(* One unpipelined divider per fp-divide issue slot, so the single-cluster
   machine and the whole dual-cluster machine hold the same number of
   dividers (the paper's resource-parity rule, §4). *)
let create limits =
  { budget = Mcsim_isa.Issue_rules.budget limits;
    dividers = Array.make (max 1 limits.Mcsim_isa.Issue_rules.fp_divide) 0;
    n_total = 0;
    counts = Array.make 7 0 }

let new_cycle t = Mcsim_isa.Issue_rules.reset t.budget

(* Dense per-class slot; both [Fp_divide] widths share one (they share
   the divider and the Table-1 budget row). *)
let class_slot (op : Mcsim_isa.Op_class.t) =
  match op with
  | Int_multiply -> 0
  | Int_other -> 1
  | Fp_divide _ -> 2
  | Fp_other -> 3
  | Load -> 4
  | Store -> 5
  | Control -> 6

(* The first divider idle at [cycle], or -1. A top-level recursion
   returning an int: a local closure or an option here would allocate on
   every issue check of a waiting divide. *)
let rec free_divider_from t ~cycle i =
  if i = Array.length t.dividers then -1
  else if t.dividers.(i) <= cycle then i
  else free_divider_from t ~cycle (i + 1)

let free_divider t ~cycle = free_divider_from t ~cycle 0

let can_issue t ~cycle (op : Mcsim_isa.Op_class.t) =
  Mcsim_isa.Issue_rules.can_issue t.budget op
  && match op with Fp_divide _ -> free_divider t ~cycle >= 0 | _ -> true

let issue t ~cycle op =
  if not (can_issue t ~cycle op) then invalid_arg "Fu.issue: cannot issue";
  Mcsim_isa.Issue_rules.consume t.budget op;
  (match op with
  | Fp_divide _ -> t.dividers.(free_divider t ~cycle) <- cycle + Mcsim_isa.Op_class.latency op
  | Int_multiply | Int_other | Fp_other | Load | Store | Control -> ());
  t.n_total <- t.n_total + 1;
  let slot = class_slot op in
  t.counts.(slot) <- t.counts.(slot) + 1

let issued_this_cycle t = Mcsim_isa.Issue_rules.issued t.budget
let total_issued t = t.n_total

let issued_of_class t op = t.counts.(class_slot op)

let clear_divider t = Array.fill t.dividers 0 (Array.length t.dividers) 0
