(** Per-cycle instruction-issue limits (paper, Table 1).

    Each machine (or each cluster of the dual-cluster machine) may issue at
    most [total] instructions per cycle, further capped per class. The
    floating-point caps share a combined [fp_all] budget in addition to the
    per-class ones, mirroring the table's "floating point: all" column.
    The machine's per-cluster functional units count each cycle's issues
    against them. *)

type limits = {
  total : int;
  int_multiply : int;
  int_other : int;
  fp_all : int;
  fp_divide : int;
  fp_other : int;
  memory : int;  (** loads and stores combined *)
  control : int;
}

val single_cluster : limits
(** Row 1 of Table 1: 8-issue; 8/8 integer, 4 fp (4 divide, 4 other),
    4 memory, 4 control. *)

val for_width : int -> limits
(** [for_width w]: the caps of a [w]-issue machine or cluster — every cap
    of {!single_cluster} scaled by [w/8], rounded down and never below 1.
    [for_width 8] is row 1 and [for_width 4] row 2 of Table 1 (one cluster
    of the dual machine, or the four-way-issue single machine §4 also
    evaluates); [for_width 2] caps the fp, memory and control classes at
    1, and [for_width 1] issues one instruction of any class per cycle.
    @raise Invalid_argument if [w < 1]. *)

val pp : Format.formatter -> limits -> unit

val to_rows : limits -> string list
(** Cells in Table-1 column order, for table rendering. *)
