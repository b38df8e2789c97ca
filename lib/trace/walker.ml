module Il = Mcsim_ir.Il
module Program = Mcsim_ir.Program
module Profile = Mcsim_ir.Profile
module Branch_model = Mcsim_ir.Branch_model
module Mem_stream = Mcsim_ir.Mem_stream
module Mach_prog = Mcsim_compiler.Mach_prog
module Instr = Mcsim_isa.Instr
module Flat_trace = Mcsim_isa.Flat_trace
module Rng = Mcsim_util.Rng

let split_streams seed =
  let root = Rng.create seed in
  let branch_rng = Rng.split root in
  let mem_rng = Rng.split root in
  (branch_rng, mem_rng)

(* Block ids are plain ints, with -1 for [Halt], so the walk allocates
   nothing per visited block. *)
let profile ?(seed = 1) ?(max_blocks = 1_000_000) prog =
  let branch_rng, _ = split_streams seed in
  let blocks = prog.Program.blocks in
  let states =
    Array.map
      (fun (b : Program.block) ->
        match b.Program.term with
        | Il.Cond { model; _ } -> Some (Branch_model.init model)
        | Il.Fallthrough _ | Il.Jump _ | Il.Halt -> None)
      blocks
  in
  let p = Profile.create ~num_blocks:(Program.num_blocks prog) in
  let block = ref prog.Program.entry in
  let visited = ref 0 in
  while !block >= 0 && !visited < max_blocks do
    let b = !block in
    Profile.bump p b;
    incr visited;
    block :=
      (match blocks.(b).Program.term with
      | Il.Fallthrough next | Il.Jump next -> next
      | Il.Halt -> -1
      | Il.Cond { taken; not_taken; _ } ->
        let st = match states.(b) with Some s -> s | None -> assert false in
        if Branch_model.next st branch_rng then taken else not_taken)
  done;
  p

let il_trace_length ?(seed = 1) ?(max_blocks = 1_000_000) prog =
  let p = profile ~seed ~max_blocks prog in
  let total = ref 0 in
  Array.iter
    (fun (b : Program.block) ->
      let slots =
        Array.length b.Program.instrs
        + match b.Program.term with Il.Jump _ | Il.Cond _ -> 1 | Il.Fallthrough _ | Il.Halt -> 0
      in
      total := !total + int_of_float (Profile.count p b.Program.id) * slots)
    prog.Program.blocks;
  !total

(* A block's terminator, with its code word and branch state made once
   per walk. *)
type block_exit =
  | Goto of int  (* fallthrough: no instruction *)
  | Stop
  | Jump of { code : Flat_trace.Builder.code; pc : int; next : int }
  | Branch of {
      code : Flat_trace.Builder.code;
      pc : int;
      state : Branch_model.state;
      taken : int;
      not_taken : int;
    }

let trace_flat ?(seed = 1) ?(max_instrs = 300_000) (m : Mach_prog.t) =
  let module B = Flat_trace.Builder in
  let branch_rng, mem_rng = split_streams seed in
  let blocks = m.Mach_prog.blocks and block_pc = m.Mach_prog.block_pc in
  (* Everything static is encoded (and validated) once per walk: the code
     word of each instruction, the address stream of each load and store
     and the exit of each block. *)
  let codes =
    Array.map
      (fun (b : Mach_prog.block) ->
        Array.map
          (fun (mi : Mach_prog.minstr) ->
            B.encode
              (if Option.is_some mi.Mach_prog.mi_mem then B.Mem_address else B.No_payload)
              mi.Mach_prog.mi)
          b.Mach_prog.instrs)
      blocks
  in
  let mem_states =
    Array.map
      (fun (b : Mach_prog.block) ->
        Array.map
          (fun (mi : Mach_prog.minstr) -> Option.map Mem_stream.init mi.Mach_prog.mi_mem)
          b.Mach_prog.instrs)
      blocks
  in
  let control srcs = Instr.make ~op:Mcsim_isa.Op_class.Control ~srcs ~dst:None in
  let exits =
    Array.mapi
      (fun i (b : Mach_prog.block) ->
        let pc = m.Mach_prog.term_pc.(i) in
        match b.Mach_prog.term with
        | Mach_prog.Mt_fallthrough next -> Goto next
        | Mach_prog.Mt_halt -> Stop
        | Mach_prog.Mt_jump next -> Jump { code = B.encode B.Jump (control []); pc; next }
        | Mach_prog.Mt_cond { src; model; taken; not_taken } ->
          Branch
            { code = B.encode B.Cond_branch (control (Option.to_list src));
              pc;
              state = Branch_model.init model;
              taken;
              not_taken })
      blocks
  in
  (* The walk never emits more than [max_instrs], and a benchmark's walk
     always reaches it: one allocation, never grown. *)
  let out = B.create ~capacity:max_instrs () in
  let block = ref m.Mach_prog.entry in
  while !block >= 0 do
    let b = !block in
    let codes = codes.(b) and mems = mem_states.(b) and base_pc = block_pc.(b) in
    for k = 0 to min (Array.length codes) (max_instrs - B.length out) - 1 do
      let aux = match mems.(k) with Some st -> Mem_stream.next st mem_rng | None -> 0 in
      B.write out codes.(k) ~pc:(base_pc + k) ~taken:false ~aux
    done;
    block :=
      if B.length out >= max_instrs then -1
      else
        match exits.(b) with
        | Goto next -> next
        | Stop -> -1
        | Jump { code; pc; next } ->
          B.write out code ~pc ~taken:true ~aux:block_pc.(next);
          next
        | Branch { code; pc; state; taken; not_taken } ->
          let outcome = Branch_model.next state branch_rng in
          let next = if outcome then taken else not_taken in
          B.write out code ~pc ~taken:outcome ~aux:block_pc.(next);
          next
  done;
  B.finish out
