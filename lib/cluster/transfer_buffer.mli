(** Operand / result transfer buffers (paper §2.1, Figure 1).

    Each cluster owns one operand transfer buffer (slaves in the {e other}
    cluster write forwarded source operands into it) and one result
    transfer buffer (masters in the other cluster write forwarded results
    into it). Entries are identified by small integers; the paper uses
    eight of each per cluster.

    Entries are associatively searched by instruction ID in hardware; in
    the model allocation and lookup are by entry id, and occupancy is what
    matters for timing. A freed entry is reusable from the {e next} cycle
    ("this entry can be used by another instruction in the next cycle"),
    which [free ~cycle] honours. *)

type t

val create : entries:int -> t
val entries : t -> int

val available : t -> cycle:int -> int
(** Entries allocatable at [cycle]. *)

val alloc : t -> cycle:int -> int
(** @raise Invalid_argument when full at [cycle]. *)

val free : t -> cycle:int -> int -> unit
(** Entry becomes reusable at [cycle + 1]. *)

val clear : t -> unit
(** Squash support: release everything immediately. *)

val high_water : t -> int
(** Maximum simultaneous occupancy observed. *)

val allocations : t -> int
