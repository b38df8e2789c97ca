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
