(** Durable per-unit results for long sweeps.

    A checkpoint directory is a {!Result_store} whose units all carry
    one sweep's {!Mcsim_obs.Manifest}, plus two records: [sweep.json],
    the sweep's identity, and [command.json], the invocation that
    [mcsim resume] replays. Each completed sweep unit (a Table-2
    benchmark stage, an ablation point, a cluster-count cell, ...) is
    one store entry keyed by the manifest and the unit key, so an
    interrupted sweep re-opened on the same directory skips every
    recorded unit and recomputes only the missing ones: resuming
    produces output identical to an uninterrupted run.

    Safety comes from the identity record: it pins the sweep [kind],
    the full manifest (machine config digest, seed, engine, sampling
    policy, trace length — everything except the creation timestamp)
    and any sweep-specific parameters. Opening a directory whose
    identity disagrees raises a one-line [Failure] ("checkpoint ... was
    written by a different sweep"), which the CLI surfaces as
    [mcsim: error: ...] — a stale checkpoint is refused, never silently
    reused. Unit writes and reads have the store's guarantees: atomic,
    identity-verified, and a corrupt unit reads as missing and is
    recomputed. A [t] is safe to share across domains. *)

type t

val open_ :
  dir:string ->
  kind:string ->
  manifest:Mcsim_obs.Manifest.t ->
  ?extra:(string * Mcsim_obs.Json.t) list ->
  unit ->
  t
(** Open (creating if needed, including parents) checkpoint directory
    [dir] for a sweep identified by [kind], [manifest] and the
    sweep-specific [extra] parameters. On first open the identity is
    written to [dir/sweep.json]; on re-open it is compared field by
    field ([manifest.created_unix] excepted).

    @raise Failure (one line) when [dir] exists with a different
    identity, or when [dir/sweep.json] is unreadable or corrupt. *)

val store : t -> Result_store.t
(** The store holding the units; unit [key] is its entry for the
    sweep's manifest and [key]. *)

val find : t -> string -> Mcsim_obs.Json.t option
(** [find t key] is the [data] object recorded for unit [key], or
    [None] when the unit is unrecorded (or its entry is corrupt). *)

val record : t -> key:string -> (string * Mcsim_obs.Json.t) list -> unit
(** [record t ~key fields] durably stores unit [key]'s results;
    re-recording a key overwrites it. *)

val write_command : dir:string -> (string * Mcsim_obs.Json.t) list -> unit
(** Write [dir/command.json] — the CLI invocation that started the
    sweep, stored before any unit runs so [mcsim resume] can
    reconstruct and finish it. Creates [dir] if needed. *)

val read_command : dir:string -> (string * Mcsim_obs.Json.t) list
(** Read back {!write_command}'s record.
    @raise Failure (one line) when [dir/command.json] is missing or
    corrupt — e.g. when [dir] is not a checkpoint directory. *)
