type limits = {
  total : int;
  int_multiply : int;
  int_other : int;
  fp_all : int;
  fp_divide : int;
  fp_other : int;
  memory : int;
  control : int;
}

let single_cluster =
  { total = 8; int_multiply = 8; int_other = 8; fp_all = 4; fp_divide = 4; fp_other = 4;
    memory = 4; control = 4 }

let for_width w =
  if w < 1 then invalid_arg "Issue_rules.for_width";
  let l = single_cluster in
  let s x = max 1 (x * w / l.total) in
  { total = s l.total; int_multiply = s l.int_multiply; int_other = s l.int_other;
    fp_all = s l.fp_all; fp_divide = s l.fp_divide; fp_other = s l.fp_other;
    memory = s l.memory; control = s l.control }

let pp fmt l =
  Format.fprintf fmt
    "total=%d int_mul=%d int_other=%d fp_all=%d fp_div=%d fp_other=%d mem=%d ctl=%d"
    l.total l.int_multiply l.int_other l.fp_all l.fp_divide l.fp_other l.memory l.control

let to_rows l =
  List.map string_of_int
    [ l.total; l.int_multiply; l.int_other; l.fp_all; l.fp_divide; l.fp_other; l.memory;
      l.control ]

type budget = {
  limits : limits;
  mutable n_total : int;
  mutable n_int_multiply : int;
  mutable n_int_other : int;
  mutable n_fp_all : int;
  mutable n_fp_divide : int;
  mutable n_fp_other : int;
  mutable n_memory : int;
  mutable n_control : int;
}

let budget limits =
  { limits; n_total = 0; n_int_multiply = 0; n_int_other = 0; n_fp_all = 0; n_fp_divide = 0;
    n_fp_other = 0; n_memory = 0; n_control = 0 }

let reset b =
  b.n_total <- 0;
  b.n_int_multiply <- 0;
  b.n_int_other <- 0;
  b.n_fp_all <- 0;
  b.n_fp_divide <- 0;
  b.n_fp_other <- 0;
  b.n_memory <- 0;
  b.n_control <- 0

let can_issue b (op : Op_class.t) =
  let l = b.limits in
  b.n_total < l.total
  &&
  match op with
  | Int_multiply -> b.n_int_multiply < l.int_multiply
  | Int_other -> b.n_int_other < l.int_other
  | Fp_divide _ -> b.n_fp_all < l.fp_all && b.n_fp_divide < l.fp_divide
  | Fp_other -> b.n_fp_all < l.fp_all && b.n_fp_other < l.fp_other
  | Load | Store -> b.n_memory < l.memory
  | Control -> b.n_control < l.control

let consume b (op : Op_class.t) =
  if not (can_issue b op) then invalid_arg "Issue_rules.consume: over budget";
  b.n_total <- b.n_total + 1;
  match op with
  | Int_multiply -> b.n_int_multiply <- b.n_int_multiply + 1
  | Int_other -> b.n_int_other <- b.n_int_other + 1
  | Fp_divide _ ->
    b.n_fp_all <- b.n_fp_all + 1;
    b.n_fp_divide <- b.n_fp_divide + 1
  | Fp_other ->
    b.n_fp_all <- b.n_fp_all + 1;
    b.n_fp_other <- b.n_fp_other + 1
  | Load | Store -> b.n_memory <- b.n_memory + 1
  | Control -> b.n_control <- b.n_control + 1

let issued b = b.n_total
