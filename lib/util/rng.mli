(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator (branch outcomes, address
    streams, workload generation) draws from an explicit [t] so that runs
    are reproducible from a seed and independent streams can be split off
    without interference.

    The 64-bit state is held unboxed: [int], [bool] and [bernoulli]
    allocate nothing, and [float] allocates only its boxed result. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new generator whose stream is
    statistically independent of the remainder of [rng]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index rng w] samples index [i] with probability proportional
    to [w.(i)]. Requires at least one positive weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
