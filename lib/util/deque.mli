(** Growable double-ended queue over a circular buffer, with an
    allocation-free steady state.

    Used for the reorder buffer (dispatch pushes at the back, retire pops
    from the front, a squash pops from the back), for the scan engine's
    dispatch queues, and — holding plain ints — for the fetch buffer and
    the pending branch-training queue. Random access is by age index
    (0 = front/oldest). Elements are stored unboxed: no operation wraps
    them in an option, so once the backing array has reached its
    high-water mark nothing allocates.

    Like {!Vec}, popping or clearing does not drop the reference held in
    the vacated slot; fine for pooled simulation records and ints, not for
    holding large structures past their useful life. *)

type 'a t

val create : unit -> 'a t
(** Empty, with no backing storage (the first push allocates). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a
(** @raise Invalid_argument when empty. *)

val pop_back : 'a t -> 'a
(** @raise Invalid_argument when empty. *)

val front : 'a t -> 'a
(** The oldest element. @raise Invalid_argument when empty. *)

val back : 'a t -> 'a
(** The newest element. @raise Invalid_argument when empty. *)

val get : 'a t -> int -> 'a
(** [get t i] is the i-th oldest element. @raise Invalid_argument when out
    of range. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest to newest. *)

val clear : 'a t -> unit
