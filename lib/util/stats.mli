(** Named counters and small-sample statistics.

    The simulator keeps one [counter_set] per machine; benches and tests
    read individual counters by name. *)

type counter_set
(** A mutable bag of named integer counters, created lazily at 0. *)

val counters_create : unit -> counter_set
(** Empty counter set. *)

val incr : counter_set -> string -> unit
(** Add 1 to a named counter, creating it if absent. *)

val add : counter_set -> string -> int -> unit
(** Add an arbitrary amount to a named counter, creating it if absent. *)

val get : counter_set -> string -> int
(** 0 for never-touched counters. *)

val counter : counter_set -> string -> int ref
(** The live cell behind a named counter, creating it at 0 if absent.
    Callers on hot paths intern the cell once and bump it with
    [Stdlib.incr], skipping the per-event string hash of {!incr}; the
    cell stays visible to {!get}/{!to_alist}. *)

val to_alist : counter_set -> (string * int) list
(** Sorted by name. *)

type lookup
(** An immutable snapshot of counters supporting O(log n) queries by
    name — what finished simulations hand out instead of an association
    list walked per query. Structural equality on [lookup] values is
    meaningful (two snapshots are equal iff they hold the same
    counters). *)

val lookup_of_alist : (string * int) list -> lookup
(** Snapshot an association list (need not be sorted; later bindings of
    a duplicate name win). *)

val lookup_of_counters : counter_set -> lookup
(** Snapshot a {!counter_set} at its current values. *)

val lookup_get : lookup -> string -> int
(** 0 for absent names. *)

val lookup_to_alist : lookup -> (string * int) list
(** Sorted by name. *)

val mean : float array -> float
(** Arithmetic mean; 0 when empty. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 when fewer than 2
    samples. *)

val t_critical : ?confidence:float -> df:int -> unit -> float
(** Two-sided Student-t critical value at [confidence] (0.90, 0.95 —
    the default — or 0.99) with [df] degrees of freedom. Between
    tabulated rows the next smaller df is used, which errs conservative;
    above 120 df the normal limit applies.
    @raise Invalid_argument on [df < 1] or an untabulated confidence. *)

val confidence_interval : ?confidence:float -> float array -> float * float
(** [(mean, halfwidth)] of the Student-t confidence interval on the mean
    (default 95%): the true mean lies in [mean ± halfwidth] with the
    requested confidence, under the usual independence assumptions.
    @raise Invalid_argument with fewer than 2 samples. *)

val ratio : int -> int -> float
(** [ratio num den] is [num/den] as float, 0 when [den = 0]. *)
