(** One cluster's register state: per-bank physical register freelists,
    rename maps from architectural to physical registers, and a scoreboard
    of result-ready cycles (explicit renaming, as in the R10000 and the
    paper's machines).

    Each bank (integer / floating point) has [num_phys] physical
    registers. At creation every architectural register is mapped to a
    distinct physical register whose value is ready at cycle 0; the rest
    are free. The rename map covers all 32 architectural indices per bank;
    a multicluster machine simply never looks up registers the cluster
    does not own.

    Renaming an architectural destination returns both the new physical
    register and the previous mapping. The previous mapping is freed when
    the instruction {e retires}; on a squash the caller restores it with
    {!undo_rename} (in reverse dispatch order). *)

type bank = B_int | B_fp

val bank_of_reg : Mcsim_isa.Reg.t -> bank

type t

val create : num_phys:int -> t
(** Requires [num_phys >= 32] (one per architectural register, plus
    headroom for in-flight values). *)

val num_phys : t -> int
val free_count : t -> bank -> int

val lookup : t -> Mcsim_isa.Reg.t -> int
(** Current physical register of an architectural register.
    @raise Invalid_argument on a hardwired-zero register. *)

val rename : t -> Mcsim_isa.Reg.t -> (int * int) option
(** [rename t reg] allocates a fresh physical register for destination
    [reg], updates the map, and returns [(new_phys, prev_phys)] — or
    [None] when the bank's freelist is empty (dispatch must stall). The
    new register is marked not-ready. *)

val rename_packed : t -> Mcsim_isa.Reg.t -> int
(** As {!rename} but allocation-free: returns
    [(new_phys lsl 16) lor prev_phys], or [-1] when the bank's freelist
    is empty. Physical ids fit in 16 bits ({!create} requires
    [num_phys <= 65536]). *)

val undo_rename : t -> Mcsim_isa.Reg.t -> new_phys:int -> prev_phys:int -> unit
(** Squash: restore the previous mapping and free [new_phys]. Must be
    applied in reverse dispatch order. *)

val release : t -> bank -> int -> unit
(** Free a physical register (the previous mapping, at retire). *)

val ready_at : t -> bank -> int -> int
(** Cycle at which the physical register's value is available to
    consumers; [max_int] while the producer has not issued. *)

val set_ready : t -> bank -> int -> int -> unit
(** [set_ready t bank phys cycle]: the producer issued; value available
    from [cycle]. *)
