(** Machine instructions.

    A static instruction names architectural registers ({!Reg.t}) and an
    operation class ({!Op_class.t}). Its occurrences in the committed
    execution trace live in a [Flat_trace.t], which adds what the
    trace-driven simulator needs: the memory address touched
    (loads/stores) and the branch outcome ({!branch_info}, control flow).

    Hardwired-zero registers may appear in [srcs]/[dst]; the machines drop
    them during renaming (no dependence, no physical register). *)

type t = {
  op : Op_class.t;
  srcs : Reg.t list;  (** source registers, in operand order; length <= 2 *)
  dst : Reg.t option;
}

val make : op:Op_class.t -> srcs:Reg.t list -> dst:Reg.t option -> t
(** Validates shape: at most two sources; [Store] and [Control] have no
    destination; [Load] has a destination; fp classes name at least one fp
    register operand position sensibly is NOT enforced (the ISA allows
    int<->fp moves).
    @raise Invalid_argument on shape violations. *)

val regs : t -> Reg.t list
(** All registers named (sources then destination), including zeros. *)

val named_regs : t -> Reg.t list
(** [regs] without the hardwired-zero registers — the registers that
    matter for cluster distribution. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Branch outcome attached to a dynamic control-flow instruction. *)
type branch_info = {
  conditional : bool;  (** only conditional branches consult the predictor *)
  taken : bool;
  target : int;  (** static id of the target instruction *)
}
