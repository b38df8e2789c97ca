type t = {
  op : Op_class.t;
  srcs : Reg.t list;
  dst : Reg.t option;
}

let make ~op ~srcs ~dst =
  if List.length srcs > 2 then invalid_arg "Instr.make: more than two sources";
  (match (op, dst) with
  | (Op_class.Store | Op_class.Control), Some _ ->
    invalid_arg "Instr.make: store/control with destination"
  | Op_class.Load, None -> invalid_arg "Instr.make: load without destination"
  | (Op_class.Store | Op_class.Control), None
  | Op_class.Load, Some _
  | (Op_class.Int_multiply | Op_class.Int_other | Op_class.Fp_divide _ | Op_class.Fp_other), _
    -> ());
  { op; srcs; dst }

let regs t = t.srcs @ Option.to_list t.dst

let named_regs t = List.filter (fun r -> not (Reg.is_zero r)) (regs t)

let to_string t =
  let dst = match t.dst with Some d -> Reg.to_string d ^ " <- " | None -> "" in
  let srcs = String.concat ", " (List.map Reg.to_string t.srcs) in
  Printf.sprintf "%s%s %s" dst (Op_class.to_string t.op) srcs

let pp fmt t = Format.pp_print_string fmt (to_string t)

type branch_info = {
  conditional : bool;
  taken : bool;
  target : int;
}
