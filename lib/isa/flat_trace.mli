(** Compact struct-of-arrays encoding of a committed dynamic trace.

    A flat trace stores one dynamic instruction per index across three
    parallel Bigarrays — 16 bytes per instruction, no per-instruction
    records or option boxes:

    - [pcs]  : int32 — static instruction address (word-granular);
    - [codes]: int32 — packed static instruction plus dynamic flags;
    - [aux]  : int64 — memory address (loads/stores) or branch target
      (control), which are mutually exclusive by construction.

    The [codes] word layout (low bit first):

    {v
    bits 0-2   operation class (8 variants; both fp-divide widths)
    bits 3-9   source 0:  present(1) | bank(1) | index(5)
    bits 10-16 source 1:  present(1) | bank(1) | index(5)
    bits 17-23 destination, same field layout
    bit 24     has branch payload (control ops)
    bit 25     branch is conditional
    bit 26     branch taken            (the only per-dynamic-instance bit)
    bit 27     has memory payload (loads/stores)
    v}

    This layout has one owner, this interface. The machine
    ([Mcsim_cluster.Machine]) reads the words as ints through
    {!unsafe_arrays} and extracts the fields itself (op class, register
    fields, branch bits); a check at its initialisation pins that
    extraction against {!instr} for every op class and register kind.

    Because everything but bit 26 is a function of the static instruction,
    construction interns one {!Instr.t} per static pc (a single eager pass
    over the arrays). The interned records serve the machine's plan-memo
    misses, which compile a static instruction's dispatch template once,
    and tests; the per-instruction paths read the code words. Because the
    table is never written after construction, one trace can be decoded
    concurrently from many domains. Positions are the machine's [seq]
    numbers — index [i] is the instruction with [seq = i], and {!sub}
    re-bases a window to start at 0, which is exactly the renumbering
    sampled simulation wants.

    The Bigarray representation is what makes the on-disk trace store
    possible: the three arrays are blitted to / memory-mapped from disk
    without touching the OCaml heap (see [Mcsim.Trace_store]). *)

type int32_array =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type int64_array =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val length : t -> int

(** {1 Per-index accessors}

    All of these are allocation-free. None of them mutate the trace, so
    concurrent use from multiple domains is safe. Indices are not
    bounds-checked beyond the underlying Bigarray check. *)

val pc : t -> int -> int
val is_load : t -> int -> bool
val is_store : t -> int -> bool
val is_memory : t -> int -> bool
val has_branch : t -> int -> bool
val is_cond_branch : t -> int -> bool
val branch_taken : t -> int -> bool

val branch_target : t -> int -> int
(** Meaningful only when [has_branch]. *)

val mem_addr : t -> int -> int
(** Meaningful only when [is_memory]. *)

val instr : t -> int -> Instr.t
(** The static instruction, interned per pc: repeated calls for the same
    pc return the same physical record (hand-built traces that reuse a pc
    for different instructions decode fresh instead). *)

(** {1 Whole-trace operations} *)

val sub : t -> pos:int -> len:int -> t
(** O(1) window sharing storage and the intern table; index 0 of the
    result is index [pos] of [t], so [seq] numbers restart at 0. *)

(** {1 Builder} *)

module Builder : sig
  type trace := t
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty builder with room for [capacity] (default 1024)
      instructions; it doubles when full. *)

  (** What a code word carries in [aux]. *)
  type payload =
    | No_payload
    | Mem_address  (** loads and stores: [aux] is the address *)
    | Jump  (** unconditional control op: [aux] is the target *)
    | Cond_branch  (** conditional control op: [aux] is the target *)

  type code
  (** A validated static code word: every field of the [codes] layout
      except the taken bit. *)

  val encode : payload -> Instr.t -> code
  (** The one payload validator: the instruction is a load or store iff
      [payload] is [Mem_address], and a control op iff it is [Jump] or
      [Cond_branch]. A trace generator encodes each static instruction
      once and writes its word at every dynamic occurrence.
      @raise Invalid_argument on a mismatched payload. *)

  val write : t -> code -> pc:int -> taken:bool -> aux:int -> unit
  (** Append one dynamic instance of an encoded word: its [pc], branch
      outcome and [aux] (0 for [No_payload]). Allocates nothing unless
      the builder must grow.
      @raise Invalid_argument if [taken] is set on a word that is not a
      branch, or [aux] is non-zero on a [No_payload] word. *)

  val emit :
    t -> pc:int -> ?mem_addr:int -> ?branch:Instr.branch_info -> Instr.t -> unit
  (** [encode] then [write], for hand-written traces: [mem_addr] gives a
      [Mem_address] payload, [branch] a [Jump] or [Cond_branch] one.
      @raise Invalid_argument on a mismatched payload or when both are
      given. *)

  val length : t -> int
  val finish : t -> trace
end

(** {1 Raw storage access} *)

val unsafe_arrays : t -> int32_array * int32_array * int64_array
(** The live [(pcs, codes, aux)] backing arrays, each of {!length}
    elements, in the layout above: for serialisation, and for the
    machine's per-instruction reads. Neither writes them; mutating them
    invalidates the intern table and every plan the machine memoized
    from it. *)

val of_arrays : int32_array -> int32_array -> int64_array -> t
(** Adopt [(pcs, codes, aux)] (equal lengths) as a trace, e.g. freshly
    memory-mapped storage. The intern table is built here, decoding
    the first code word at each pc, so an ill-formed one raises at
    adoption time; the machine decodes any other word through {!instr}
    the first time it plans it. That is what lets the machine read a
    mapped trace's words without checking them.
    @raise Invalid_argument if lengths differ or a code word is
    ill-formed. *)
