(** Event wheel: a monotone priority queue indexed by cycle number.

    A ring of buckets (one {!Vec.t} per slot) keyed by an integer cycle.
    Entries may only be added at or above the current floor — the smallest
    key not yet drained — which is exactly the discipline of a cycle-level
    simulator scheduling future events. [drain_upto] visits entries in key
    order and advances the floor; within one key, entries come out in
    insertion order (same-cycle batching).

    The ring wraps modulo its capacity and grows (power of two) when a key
    lands further than one revolution ahead, so arbitrary horizons work.
    Buckets are reused after draining: in steady state the wheel allocates
    nothing. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Empty wheel with floor 0. [capacity] (default 64) is rounded up to a
    power of two and is only the initial horizon; the wheel grows. *)

val length : 'a t -> int
(** Entries added but not yet drained. *)

val is_empty : 'a t -> bool
(** [length t = 0]. *)

val floor : 'a t -> int
(** Smallest key that may still be added or drained. *)

val add : 'a t -> key:int -> 'a -> unit
(** Schedule an entry at [key].
    @raise Invalid_argument if [key] is below the floor. *)

val drain_upto : 'a t -> key:int -> ('a -> unit) -> unit
(** Visit every pending entry with key [<= key] in key order (insertion
    order within a key) and advance the floor to [key + 1]. The callback
    may [add] entries at keys [> key]; it must not add at the key being
    drained or below. When the wheel is empty the floor jumps directly to
    [key + 1] without walking buckets. *)

val exists : 'a t -> ('a -> bool) -> bool
(** Whether some pending entry, at any key, satisfies the predicate.
    Walks every bucket: for assertions off the hot path. *)
