(** The end-to-end compilation pipeline (paper §3.1):

    optimized IL in ⇒ (2) prepass list scheduling ⇒ (3/4) live-range
    partitioning ⇒ (5) cluster-constrained graph-coloring register
    allocation (with spilling) ⇒ (6) lowering to machine code.

    Step 1 (classical optimization) is assumed done by the producer of the
    IL — the synthetic workload generators emit already-optimized code,
    mirroring how the paper starts from compiled binaries. *)

type scheduler =
  | Sched_none  (** native binary: cluster-oblivious allocation *)
  | Sched_local of { imbalance_threshold : int }
      (** the paper's local scheduler *)
  | Sched_round_robin
  | Sched_random of int  (** seed *)

val default_local : scheduler
(** [Sched_local { imbalance_threshold = 2 }]. *)

val scheduler_name : scheduler -> string

val scheduler_of_string : string -> (scheduler, string) result
(** Inverse of {!scheduler_name} — also accepting the CLI spellings
    ["round-robin"] and ["rr"] — onto the stock instance of each family
    ({!default_local}, [Sched_random 7]): the one scheduler-name parser
    behind [--scheduler], the sweep protocol and [mcsim resume].
    [Error] is ["unknown scheduler \"NAME\""]. *)

type compiled = {
  mach : Mach_prog.t;
  alloc : Regalloc.result;
  scheduler : scheduler;
}

val compile :
  ?list_schedule:bool ->
  ?clusters:int ->
  ?profile:Mcsim_ir.Profile.t ->
  scheduler:scheduler ->
  Mcsim_ir.Program.t ->
  compiled
(** [list_schedule] defaults to [true]. [clusters] (default 2) sets the
    target cluster count for the partitioners and the register
    allocator's residue-class register assignment. [profile] is required
    by [Sched_local] (@raise Invalid_argument if missing) and otherwise
    only weights spill costs. *)

val dual_distribution_count :
  Mcsim_cluster.Assignment.t -> Mach_prog.t -> int * int
(** Static (single, dual) distribution counts of a machine program under
    an assignment — a quick quality metric for partitions. *)
