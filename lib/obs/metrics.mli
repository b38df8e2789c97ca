(** The unified metrics snapshot: one JSON schema for every metrics
    artifact the simulator emits — [--metrics-out] on the CLI, the
    committed [results.json] ([mcsim results]), and test fixtures.

    Every snapshot has the same top level:

    {v
    { "schema_version": 1,
      "kind": "run" | "sample" | "table2" | ...,
      "manifest": { ... run provenance, see Manifest ... },
      "data": { "result": ..., "profile": ..., "sampling": ...,
                "wall_seconds": ..., "gc": ..., <kind-specific extras> } }
    v}

    [data] members are [null] when the producing run did not collect
    them; kind-specific extras (e.g. Table-2 rows) ride alongside the
    common ones. *)

val result_json : Mcsim_cluster.Machine.result -> Json.t
(** Cycles, retired, IPC, distribution/replay counts, rates, and every
    named counter (as one [counters] object, sorted by name). *)

val sampling_json : Mcsim_sampling.Sampling.t -> Json.t
(** Policy, coverage, mean IPC, CI, estimated cycles and per-interval
    observations. *)

val snapshot :
  manifest:Manifest.t ->
  kind:string ->
  ?result:Mcsim_cluster.Machine.result ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?sampling:Mcsim_sampling.Sampling.t ->
  ?wall_seconds:float ->
  ?gc:bool ->
  ?extra:(string * Json.t) list ->
  unit ->
  Json.t
(** Assemble one snapshot. [gc] (default true) includes a
    [Gc.quick_stat] snapshot of the process; [extra] fields are
    appended to [data] in order. *)

val required_keys : string list
(** Top-level keys every snapshot carries:
    [["schema_version"; "kind"; "manifest"; "data"]]. *)

val write_file : string -> Json.t -> unit
(** Write with a trailing newline. *)

(** {2 Decoders} — inverses of the encoders above, used by the durable
    experiment runner to reload checkpointed units. Each returns [None]
    on a tree the matching encoder cannot have produced. *)

val result_of_json : Json.t -> Mcsim_cluster.Machine.result option
(** Inverse of {!result_json}: rebuilds the full result record
    (including the binary-searchable counter snapshot) such that
    [result_of_json (result_json r) = Some r] — the float fields survive
    because {!Json.to_string} prints lossless shortest representations. *)

val sampling_of_json :
  ?seed:int -> machine:Mcsim_cluster.Machine.result -> Json.t -> Mcsim_sampling.Sampling.t option
(** Inverse of {!sampling_json}. The encoder stores the policy as
    ["interval:warmup:detail"], which drops its seed, and does not store
    the aggregate machine counters; pass the run's [seed] (default 1)
    and the separately-stored [machine] result to complete the record. *)
