(* Hand-written traces for the tests, built through Flat_trace.Builder
   (the one way to make a trace; its encode is the one payload
   validator), and
   trace comparison position by position through the accessors. *)

module Flat_trace = Mcsim_isa.Flat_trace
module Instr = Mcsim_isa.Instr

(* One instruction of a hand-written trace; its position is its seq. *)
type item = {
  pc : int;
  instr : Instr.t;
  mem_addr : int option;
  branch : Instr.branch_info option;
}

let mk ?(pc = 0) ?mem_addr ?branch op srcs dst =
  { pc; instr = Instr.make ~op ~srcs ~dst; mem_addr; branch }

let of_list items =
  let b = Flat_trace.Builder.create ~capacity:(List.length items) () in
  List.iter
    (fun it ->
      Flat_trace.Builder.emit b ~pc:it.pc ?mem_addr:it.mem_addr ?branch:it.branch it.instr)
    items;
  Flat_trace.Builder.finish b

let init n f = of_list (List.init n f)

(* Position [i] of [t] read back through the accessors, payloads only
   where they are meaningful: re-emitting [items t] rebuilds [t]. *)
let item t i =
  { pc = Flat_trace.pc t i;
    instr = Flat_trace.instr t i;
    mem_addr = (if Flat_trace.is_memory t i then Some (Flat_trace.mem_addr t i) else None);
    branch =
      (if Flat_trace.has_branch t i then
         Some
           { Instr.conditional = Flat_trace.is_cond_branch t i;
             taken = Flat_trace.branch_taken t i;
             target = Flat_trace.branch_target t i }
       else None) }

let items t = List.init (Flat_trace.length t) (item t)

(* Every accessor's answer at position [i]. *)
let view t i =
  ( item t i,
    ( Flat_trace.is_load t i,
      Flat_trace.is_store t i,
      Flat_trace.is_memory t i,
      Flat_trace.has_branch t i,
      Flat_trace.is_cond_branch t i,
      Flat_trace.branch_taken t i ) )

let check_equal what a b =
  Alcotest.(check int) (what ^ ": length") (Flat_trace.length a) (Flat_trace.length b);
  for i = 0 to Flat_trace.length a - 1 do
    if view a i <> view b i then Alcotest.failf "%s: instruction %d differs" what i
  done
