(** Growable vector with an allocation-free steady state.

    Backing storage doubles on demand and is never shrunk, so once a
    vector has reached its high-water mark, [push]/[set]/[clear] and the
    in-place [remove_range]/[filter_in_place]/[sort] perform no heap
    allocation. Used on
    the simulator hot path (ready lists, event-wheel buckets) where the
    per-cycle element churn is high but the population is bounded.

    [clear] only resets the length; it does not drop references to the
    stored elements. Fine for short-lived simulation objects, but do not
    use this to hold onto large structures past their useful life. *)

type 'a t

val create : unit -> 'a t
(** Empty vector with no backing storage (first [push] allocates). *)

val length : 'a t -> int
(** Live elements (the pushed-minus-cleared count, not the capacity). *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument if the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument if the index is out of bounds. *)

val push : 'a t -> 'a -> unit
(** Append, growing the backing array (amortised O(1)). *)

val clear : 'a t -> unit
(** Reset length to zero without releasing storage. *)

val remove_range : 'a t -> pos:int -> len:int -> unit
(** Delete elements [pos .. pos + len - 1], shifting the rest down (one
    blit, no allocation).
    @raise Invalid_argument unless the range lies within the live prefix. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order.
    In place: no allocation. *)

val sort : cmp:('a -> 'a -> int) -> 'a t -> unit
(** In-place insertion sort of the live prefix. O(n + inversions): cheap
    for the nearly-sorted inputs produced by append-mostly-in-order use. *)
