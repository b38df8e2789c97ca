type scheduler =
  | Sched_none
  | Sched_local of { imbalance_threshold : int }
  | Sched_round_robin
  | Sched_random of int

let default_local = Sched_local { imbalance_threshold = 2 }

let scheduler_name = function
  | Sched_none -> "none"
  | Sched_local _ -> "local"
  | Sched_round_robin -> "round_robin"
  | Sched_random _ -> "random"

let scheduler_of_string = function
  | "none" -> Ok Sched_none
  | "local" -> Ok default_local
  | "round_robin" | "round-robin" | "rr" -> Ok Sched_round_robin
  | "random" -> Ok (Sched_random 7)
  | s -> Error (Printf.sprintf "unknown scheduler %S" s)

type compiled = {
  mach : Mach_prog.t;
  alloc : Regalloc.result;
  scheduler : scheduler;
}

let compile ?(list_schedule = true) ?(clusters = 2) ?profile ~scheduler prog =
  let prog = if list_schedule then List_scheduler.schedule prog else prog in
  let partition =
    match scheduler with
    | Sched_none -> Partition.none ~clusters prog
    | Sched_round_robin -> Partition.round_robin ~clusters prog
    | Sched_random seed -> Partition.random ~clusters ~seed prog
    | Sched_local { imbalance_threshold } -> (
      match profile with
      | None -> invalid_arg "Pipeline.compile: the local scheduler needs a profile"
      | Some p -> Local_scheduler.partition ~clusters ~imbalance_threshold prog p)
  in
  let alloc = Regalloc.allocate ?profile prog partition in
  let mach = Lowering.lower alloc in
  { mach; alloc; scheduler }

let dual_distribution_count assignment (mach : Mach_prog.t) =
  let single = ref 0 and dual = ref 0 in
  let count (i : Mcsim_isa.Instr.t) =
    match Mcsim_cluster.Distribution.plan assignment i with
    | Mcsim_cluster.Distribution.Single _ -> incr single
    | Mcsim_cluster.Distribution.Multi _ -> incr dual
  in
  Array.iter
    (fun (b : Mach_prog.block) ->
      Array.iter (fun m -> count m.Mach_prog.mi) b.Mach_prog.instrs;
      match b.Mach_prog.term with
      | Mach_prog.Mt_jump _ ->
        count (Mcsim_isa.Instr.make ~op:Mcsim_isa.Op_class.Control ~srcs:[] ~dst:None)
      | Mach_prog.Mt_cond { src; _ } ->
        count
          (Mcsim_isa.Instr.make ~op:Mcsim_isa.Op_class.Control ~srcs:(Option.to_list src)
             ~dst:None)
      | Mach_prog.Mt_fallthrough _ | Mach_prog.Mt_halt -> ())
    mach.Mach_prog.blocks;
  (!single, !dual)
