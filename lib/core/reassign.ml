module Il = Mcsim_ir.Il
module Builder = Mcsim_ir.Program.Builder
module Op = Mcsim_isa.Op_class
module Reg = Mcsim_isa.Reg
module Machine = Mcsim_cluster.Machine
module Flat_trace = Mcsim_isa.Flat_trace
module Assignment = Mcsim_cluster.Assignment
module Pipeline = Mcsim_compiler.Pipeline

type outcome = {
  shared_a : Reg.t;
  shared_b : Reg.t;
  static_result : Machine.result;
  phased_result : Machine.result;
  moved : int;
}

(* entry -> loop A -> loop B -> tail(halt). Each loop body runs two
   independent strands that both consume the phase's shared value. The
   shared values are initialized at entry and still read in the tail, so
   their live ranges span the program and must get distinct registers. *)
let build ~trip =
  let b = Builder.create ~name:"reassign-demo" in
  let lr n = Builder.fresh_lr b ~name:n Il.Bank_int in
  let shared_a = lr "shared_a" and shared_b = lr "shared_b" in
  let strands_a = List.init 6 (fun i -> lr (Printf.sprintf "a%d" i)) in
  let strands_b = List.init 6 (fun i -> lr (Printf.sprintf "b%d" i)) in
  let final = lr "final" in
  let add dst srcs = Il.instr ~op:Op.Int_other ~srcs ~dst () in
  (* Six parallel one-cycle strands per phase, each reading the shared
     value at every step: the loop saturates the issue bandwidth, so the
     extra issue slots consumed by forwarding slaves are what hurts. *)
  let strand_steps shared strands =
    List.concat_map (fun x -> [ add x [ x; shared ]; add x [ x; shared ] ]) strands
  in
  let exit_blk =
    Builder.add_block b [ add final [ shared_a; shared_b ] ] Il.Halt
  in
  let loop_b = Builder.reserve_block b in
  Builder.define_block b loop_b
    (strand_steps shared_b strands_b)
    (Il.Cond { src = Some (List.hd strands_b); model = Mcsim_ir.Branch_model.Loop { trip };
               taken = loop_b; not_taken = exit_blk });
  let loop_a = Builder.reserve_block b in
  Builder.define_block b loop_a
    (strand_steps shared_a strands_a)
    (Il.Cond { src = Some (List.hd strands_a); model = Mcsim_ir.Branch_model.Loop { trip };
               taken = loop_a; not_taken = loop_b });
  let entry =
    Builder.add_block b
      (add shared_a [] :: add shared_b []
       :: List.map (fun x -> add x []) (strands_a @ strands_b))
      (Il.Jump loop_a)
  in
  (Builder.finish b ~entry, shared_a, shared_b, loop_b)

let run ?jobs ?(phase_iterations = 4000) () =
  let prog, sa, sb, loop_b_id = build ~trip:phase_iterations in
  let profile = Mcsim_trace.Walker.profile prog in
  let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
  let reg_of lr = Option.get c.Pipeline.alloc.Mcsim_compiler.Regalloc.reg_of.(lr) in
  (* Spill code may have renumbered nothing (no pressure here), but go
     through the allocator's table to stay honest. *)
  let shared_a = reg_of sa and shared_b = reg_of sb in
  let max_instrs = 30 * phase_iterations in
  let trace = Mcsim_trace.Walker.trace_flat ~max_instrs c.Pipeline.mach in
  let n = Flat_trace.length trace in
  let cfg = Machine.dual_cluster () in
  (* Split the committed trace at the first instruction of loop B. *)
  let boundary_pc = c.Pipeline.mach.Mcsim_compiler.Mach_prog.block_pc.(loop_b_id) in
  let split =
    let rec find i =
      if i >= n then n
      else if Flat_trace.pc trace i >= boundary_pc
              && Flat_trace.pc trace i
                 < boundary_pc
                   + Array.length
                       c.Pipeline.mach.Mcsim_compiler.Mach_prog.blocks.(loop_b_id)
                         .Mcsim_compiler.Mach_prog.instrs
                   + 1
      then i
      else find (i + 1)
    in
    find 0
  in
  let phase_a = Flat_trace.sub trace ~pos:0 ~len:split in
  let phase_b = Flat_trace.sub trace ~pos:split ~len:(n - split) in
  let asg_a =
    Assignment.create ~num_clusters:2 ~globals:[ Reg.sp; Reg.gp; shared_a ] ()
  in
  let asg_b =
    Assignment.create ~num_clusters:2 ~globals:[ Reg.sp; Reg.gp; shared_b ] ()
  in
  (* The static and phased simulations are independent; fan them out. *)
  let jobs = match jobs with Some j -> j | None -> Mcsim_util.Pool.default_jobs () in
  let static_result, phased_result =
    match
      Mcsim_util.Pool.parallel_map ~jobs
        (function
          | `Static -> Machine.run_flat cfg trace
          | `Phased -> Machine.run_phased_flat cfg [ (asg_a, phase_a); (asg_b, phase_b) ])
        [ `Static; `Phased ]
    with
    | [ s; p ] -> (s, p)
    | _ -> assert false
  in
  { shared_a; shared_b; static_result; phased_result;
    moved = List.length (Machine.moved_registers asg_a asg_b) }

let improvement_pct o =
  100.0
  -. (100.0 *. float_of_int o.phased_result.Machine.cycles
      /. float_of_int (max 1 o.static_result.Machine.cycles))

let render o =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Dynamic register reassignment (paper sections 2.1 and 6)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "phase A's shared value lives in %s, phase B's in %s; a static assignment\n\
        can make neither global (sp/gp are taken), so every other strand pays an\n\
        inter-cluster operand forward per use.\n"
       (Reg.to_string o.shared_a) (Reg.to_string o.shared_b));
  Buffer.add_string buf
    (Printf.sprintf "  static even/odd + sp,gp:   %7d cycles, %6d dual-distributed\n"
       o.static_result.Machine.cycles o.static_result.Machine.dual_distributed);
  Buffer.add_string buf
    (Printf.sprintf
       "  per-phase reassignment:    %7d cycles, %6d dual-distributed (%d registers \
        copied at the boundary)\n"
       o.phased_result.Machine.cycles o.phased_result.Machine.dual_distributed o.moved);
  Buffer.add_string buf
    (Printf.sprintf "  improvement: %+.1f%% cycles\n" (improvement_pct o));
  Buffer.contents buf
