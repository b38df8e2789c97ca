(** A fixed-size domain pool for deterministic fan-out of independent
    jobs (OCaml 5 [Domain] + [Mutex]; no dependencies beyond the stdlib
    and the [unix] library shipped with the compiler).

    The experiment layer uses {!parallel_map} to run independent
    (workload, scheduler, machine-config) simulations on separate
    domains. Every job must be a pure function of its input — in
    particular any randomness must come from a generator seeded by the
    job description, never from state shared between jobs — so a
    parallel run is bit-for-bit identical to a serial one.

    For long sweeps the pool also provides {e durability} primitives:
    bounded per-job retry with a deterministic backoff schedule
    ({!parallel_map} with [~retries]), a per-job failure status instead
    of an exception ({!parallel_map_status}), a seeded fault-injection
    hook ({!seeded_faults}) with which tests and the bench harness prove
    that retry and checkpoint/resume preserve results, and the cached
    fan-out ({!fill}) through which a sweep runs only its missing
    units. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the worker count the
    experiment entry points default to. 1 on machines without usable
    parallelism, in which case everything runs on the serial path. *)

exception Injected_fault of { job : int; attempt : int }
(** Raised inside a worker when an [inject_fault] hook fires for
    (zero-based) job index [job] on (zero-based) [attempt]. Behaves like
    any other job failure: it is retried up to [retries] times and then
    either re-raised ({!parallel_map}) or recorded as {!Failed}
    ({!parallel_map_status}). *)

type failure = {
  attempts : int;  (** attempts made, i.e. [retries + 1] on exhaustion *)
  exn : exn;  (** the last attempt's exception *)
  backtrace : Printexc.raw_backtrace;  (** where the last attempt failed *)
}

type 'a status = Done of 'a | Failed of failure
(** Per-job outcome of {!parallel_map_status}: the job's result, or the
    failure that survived every retry. *)

val failure_message : failure -> string
(** One-line human-readable rendering:
    ["failed after N attempt(s): <exn>"]. *)

val default_backoff : int -> float
(** The default retry delay: [default_backoff k] is the seconds slept
    before retry [k] (1-based), doubling from 5 ms and capped at 250 ms
    — a pure function of [k], so the schedule is deterministic. *)

val no_backoff : int -> float
(** Always [0.] — pass as [~backoff] in tests to retry immediately. *)

val seeded_faults : seed:int -> rate:float -> job:int -> attempt:int -> bool
(** A deterministic fault injector: fires with probability [rate],
    decided by a {!Rng} stream seeded from [(seed, job, attempt)] alone
    — independent of domain scheduling, so a faulty run is exactly
    reproducible from [seed]. *)

val parallel_map :
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [parallel_map ~jobs f xs] is [List.map f xs], computed by up to
    [jobs] domains (the calling domain participates, so [jobs - 1] are
    spawned). Results preserve input order regardless of completion
    order.

    Degrades to a serial in-place loop — no domains, no locks — when
    [jobs = 1] or the list has fewer than two elements; never spawns
    more domains than there are jobs to run.

    A job that raises is retried up to [retries] (default 0) further
    times, sleeping [backoff k] seconds (default {!default_backoff})
    before the [k]-th retry. [inject_fault] (for tests and the bench
    harness) is consulted before each attempt and raises
    {!Injected_fault} in the worker when it returns [true].

    If a job fails all its attempts, the last exception (with its
    backtrace) is re-raised in the caller after all workers have
    stopped; when several jobs fail, the one with the smallest input
    index that was observed to fail wins, and no new jobs are started
    after the first exhausted failure.

    @raise Invalid_argument when [jobs < 1] or [retries < 0]. *)

val parallel_map_status :
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b status list
(** {!parallel_map}, degrading failure to data: every job runs to a
    {!status} ([Done] or, once its retries are exhausted, [Failed]), a
    failing job never aborts the others, and the caller decides what a
    permanent failure means (the experiment layer reports it as a failed
    sweep unit instead of losing the whole sweep).

    @raise Invalid_argument when [jobs < 1] or [retries < 0]. *)

val fill : find:('a -> 'b option) -> run:('a list -> 'b list) -> 'a list -> 'b list
(** The cached fan-out every durable sweep goes through: [fill ~find
    ~run xs] looks each input up with [find], hands the misses, in input
    order, to one [run] call (not made at all when nothing misses) and
    returns one value per input, in input order: the cached value or
    the miss's result. [run] is typically a partially applied
    {!parallel_map} or {!parallel_map_status}, so retries and
    [inject_fault] see only the misses: job [k] is the [k]-th input that
    actually runs.

    @raise Invalid_argument when [run] returns fewer results than it
    was given misses. *)
