(** Free list of integer resource identifiers in [\[0, size)].

    Models hardware allocators: physical register freelists and transfer
    buffer entry allocators. Allocation order is LIFO (does not matter to
    the model; identifiers are opaque tags). *)

type t

val create : size:int -> t
(** All identifiers initially free. Requires [size >= 0]. *)

val size : t -> int
val available : t -> int

val alloc : t -> int option
(** Take a free identifier, or [None] if exhausted. *)

val take : t -> int
(** As {!alloc} but allocation-free: a free identifier, or [-1] if
    exhausted. Hot-path variant (no [option] box). *)

val free : t -> int -> unit
(** Return an identifier. @raise Invalid_argument on double free or out of
    range. *)

val reset : t -> unit
(** Free everything. *)

(** Slab-backed object pool: the record analogue of the identifier
    freelist above. Objects are constructed once (lazily, slot by slot, so
    creating a pool is cheap), carry their slot index in a field the
    caller exposes via [slot], and are recycled through [alloc]/[free]
    instead of being re-allocated on the heap — the steady state performs
    no minor-heap allocation. Backing storage is pre-sized at [create]
    and doubles on demand; the built population is bounded by the
    caller's maximum number of simultaneously live objects (for the
    machine pools, ROB occupancy x copies per group). *)
module Slab : sig
  type 'a t

  val create : ?initial:int -> make:(int -> 'a) -> slot:('a -> int) -> unit -> 'a t
  (** [create ~make ~slot ()]: [make i] builds the object for slot [i]
      (it must store [i] where [slot] can read it back; [make (-1)] is
      used once for an internal filler). [initial] pre-sizes the slab
      (default 64). @raise Invalid_argument when [initial < 1]. *)

  val alloc : 'a t -> 'a
  (** A free object (recycled if possible, freshly built otherwise). The
      caller must reinitialize every mutable field it relies on. *)

  val free : 'a t -> 'a -> unit
  (** Return an object to the pool.
      @raise Invalid_argument on double free or an object from another
      pool. *)

  val reset : 'a t -> unit
  (** Mark every object free. Built objects are retained. *)

  val live : 'a t -> int
  (** Objects currently handed out. *)

  val built : 'a t -> int
  (** Objects constructed so far (the pool's high-water mark). *)

  val capacity : 'a t -> int
  (** Current slab capacity (grows geometrically). *)
end
