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

let profile ?(seed = 1) ?(max_blocks = 1_000_000) prog =
  let branch_rng, _ = split_streams seed in
  let states =
    Array.map
      (fun (b : Program.block) ->
        match b.Program.term with
        | Il.Cond { model; _ } -> Some (Branch_model.init model)
        | Il.Fallthrough _ | Il.Jump _ | Il.Halt -> None)
      prog.Program.blocks
  in
  let p = Profile.create ~num_blocks:(Program.num_blocks prog) in
  let block = ref (Some prog.Program.entry) in
  let visited = ref 0 in
  while Option.is_some !block && !visited < max_blocks do
    let b = Option.get !block in
    Profile.bump p b;
    incr visited;
    block :=
      (match prog.Program.blocks.(b).Program.term with
      | Il.Fallthrough next | Il.Jump next -> Some next
      | Il.Halt -> None
      | Il.Cond { taken; not_taken; _ } ->
        let st = match states.(b) with Some s -> s | None -> assert false in
        Some (if Branch_model.next st branch_rng then taken else not_taken))
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

let trace_flat ?(seed = 1) ?(max_instrs = 300_000) (m : Mach_prog.t) =
  let branch_rng, mem_rng = split_streams seed in
  let branch_states =
    Array.map
      (fun (b : Mach_prog.block) ->
        match b.Mach_prog.term with
        | Mach_prog.Mt_cond { model; _ } -> Some (Branch_model.init model)
        | Mach_prog.Mt_fallthrough _ | Mach_prog.Mt_jump _ | Mach_prog.Mt_halt -> None)
      m.Mach_prog.blocks
  in
  let mem_states =
    Array.map
      (fun (b : Mach_prog.block) ->
        Array.map
          (fun (mi : Mach_prog.minstr) -> Option.map Mem_stream.init mi.Mach_prog.mi_mem)
          b.Mach_prog.instrs)
      m.Mach_prog.blocks
  in
  (* Emission goes straight into the packed struct-of-arrays encoding: no
     per-instruction records, no option boxes — the walker's only
     allocations are the branch/mem generator state set up above. *)
  let out = Flat_trace.Builder.create ~capacity:(min max_instrs 65_536) () in
  let emit ?mem_addr ?branch pc instr =
    if Flat_trace.Builder.length out < max_instrs then
      Flat_trace.Builder.emit out ~pc ?mem_addr ?branch instr
  in
  let full () = Flat_trace.Builder.length out >= max_instrs in
  let current = ref (Some m.Mach_prog.entry) in
  while Option.is_some !current && not (full ()) do
    let block = Option.get !current in
    let b = m.Mach_prog.blocks.(block) in
    let base_pc = m.Mach_prog.block_pc.(block) in
    Array.iteri
      (fun k (mi : Mach_prog.minstr) ->
        if not (full ()) then begin
          let mem_addr =
            match mem_states.(block).(k) with
            | Some st -> Some (Mem_stream.next st mem_rng)
            | None -> None
          in
          emit ?mem_addr (base_pc + k) mi.Mach_prog.mi
        end)
      b.Mach_prog.instrs;
    if full () then current := None
    else begin
      let term_pc = m.Mach_prog.term_pc.(block) in
      match b.Mach_prog.term with
      | Mach_prog.Mt_fallthrough next -> current := Some next
      | Mach_prog.Mt_halt -> current := None
      | Mach_prog.Mt_jump next ->
        emit term_pc
          ~branch:
            { Instr.conditional = false; taken = true; target = m.Mach_prog.block_pc.(next) }
          (Instr.make ~op:Mcsim_isa.Op_class.Control ~srcs:[] ~dst:None);
        current := Some next
      | Mach_prog.Mt_cond { src; taken; not_taken; _ } ->
        let st = match branch_states.(block) with Some s -> s | None -> assert false in
        let outcome = Branch_model.next st branch_rng in
        let next = if outcome then taken else not_taken in
        emit term_pc
          ~branch:
            { Instr.conditional = true; taken = outcome;
              target = m.Mach_prog.block_pc.(next) }
          (Instr.make ~op:Mcsim_isa.Op_class.Control ~srcs:(Option.to_list src) ~dst:None);
        current := Some next
    end
  done;
  Flat_trace.Builder.finish out
