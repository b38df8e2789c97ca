(** The sweep-service daemon.

    One process, one Unix-domain listening socket, [jobs] worker
    domains. The main loop ([Unix.select]) owns every connection and
    all bookkeeping; workers only simulate. A submitted sweep is split
    into {e units} by {!Sweep.units} — one Table-2 row, one detailed
    run, one sampled estimate — each addressed by its
    {!Mcsim.Result_store} identity (a sweep that fails validation is
    answered with a one-line [error] and the connection stays open),
    and every unit is answered from the cheapest tier that has it:

    + the in-memory cache (results computed or loaded since startup),
    + the on-disk {!Mcsim.Result_store} (shared with [--result-cache]
      batch runs and previous server lifetimes),
    + an {e in-flight} computation of the same digest started for any
      client — the unit is coalesced onto it, never recomputed,
    + a worker domain, which wraps the simulation in
      {!Mcsim_util.Pool.parallel_map_status} with the configured
      [retries]/[backoff] and records the result in the store.

    Per-unit progress frames stream back as units resolve; a client
    that disconnects mid-sweep is forgotten without disturbing the
    computations it started (their results still land in the caches,
    and coalesced waiters from other clients are still served). *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains (>= 1) *)
  retries : int;  (** per-unit retries, as in the batch CLI *)
  backoff : (int -> float) option;  (** [None] = Pool's default schedule *)
  result_cache : string option;  (** {!Mcsim.Result_store} directory *)
  trace_cache : string option;  (** {!Mcsim.Trace_store} directory *)
  log : (string -> unit) option;  (** one-line event sink; [None] = silent *)
  before_compute : (string -> unit) option;
      (** test hook: runs in the worker domain, with the unit's digest,
          before the computation starts — a test can block here to hold
          a unit in flight deterministically *)
  on_ready : (unit -> unit) option;
      (** called once the socket is listening — tests running the
          server in a [Domain] use it to know when to connect *)
}

val default : socket_path:string -> config
(** [jobs = 1], [retries = 0], everything else off. *)

val run : config -> unit
(** Serve until a [stop] request arrives, then drain the workers,
    close every connection, unlink the socket and return.

    A leftover socket file from a crashed server is detected (nobody
    accepts the probe connection) and replaced; a live one is refused
    with [Failure "... already listening ..."], and any other file at
    the path with a [Failure] that leaves it untouched. An error
    creating, binding or listening on the socket is a one-line
    [Failure] naming the path, raised before any worker domain
    starts. *)
