(** Dynamic register reassignment (paper §2.1's hardware mechanism and
    §6's compiler-directed use of it), demonstrated end to end.

    The demo program has two sequential loop phases. In each phase, both
    data-flow strands keep reading one {e phase-specific} shared value —
    a scale factor in phase A, a threshold in phase B. The two shared
    live ranges are live across the whole program, so the register
    allocator must keep them in two different architectural registers,
    and a static assignment can make at most one of them global
    (sp/gp are already taken). With the reassignment hardware, the
    compiler directs the machine to make phase A's register global during
    phase A and phase B's during phase B, paying the drain-and-copy
    overhead at the phase boundary. *)

type outcome = {
  shared_a : Mcsim_isa.Reg.t;  (** register holding phase A's shared value *)
  shared_b : Mcsim_isa.Reg.t;
  static_result : Mcsim_cluster.Machine.result;
      (** the whole trace under the fixed even/odd + sp/gp assignment *)
  phased_result : Mcsim_cluster.Machine.result;
      (** per-phase assignments with the phase's shared register global *)
  moved : int;  (** registers copied at the phase boundary *)
}

val run : ?jobs:int -> ?phase_iterations:int -> unit -> outcome
(** [phase_iterations] (default 4000) controls each phase's loop trip.
    [jobs] (default {!Mcsim_util.Pool.default_jobs}) runs the static and
    phased simulations on separate domains when > 1; the outcome is
    identical for every [jobs] value. *)

val improvement_pct : outcome -> float
(** Cycle reduction of the phased run relative to the static run
    (positive = reassignment helped). *)

val render : outcome -> string
