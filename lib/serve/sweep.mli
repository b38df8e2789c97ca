(** What a {!Protocol.sweep} runs: the one derivation of machine
    configs, committed traces and cacheable units from a sweep value.

    A sweep is the run spec every surface shares. The batch [table2],
    [run] and [sample] commands and their [submit] twins build one from
    the same flags; [--checkpoint] stores it in [command.json] through
    {!Protocol.sweep_to_json} and [mcsim resume] reads it back through
    {!Protocol.sweep_of_json}; the daemon receives it on the wire. This
    module turns it into units — each with the {!Mcsim.Result_store}
    identity it is cached under and the computation that produces it —
    so the batch CLI (checkpoint → result store → compute) and the
    daemon (memory → store → in flight → worker) address every unit
    identically and share one cache. *)

val config :
  ?what:string ->
  ?clusters:int ->
  ?topology:Mcsim_cluster.Interconnect.topology ->
  ?steering:Mcsim_cluster.Steering.policy ->
  [ `Single | `Dual ] ->
  Mcsim_cluster.Machine.config
(** The machine a run or sample sweep simulates: [clusters] overrides
    the single/dual choice with {!Mcsim_cluster.Machine.config_for_clusters};
    [topology] (default point-to-point) and [steering] (default static)
    apply either way and so reach the config digest.
    @raise Invalid_argument for a cluster count other than 1, 2, 4 or 8
    @raise Failure (one line, prefixed by [what], default ["run"]) for a
    dynamic steering policy on a one-cluster machine. *)

val machine_pair :
  four_way:bool ->
  ?clusters:int ->
  topology:Mcsim_cluster.Interconnect.topology ->
  steering:Mcsim_cluster.Steering.policy ->
  unit ->
  Mcsim_cluster.Machine.config option * Mcsim_cluster.Machine.config
(** The Table-2 machine pair [(single, clustered)] — the single side is
    [None] for {!Mcsim.Table2}'s default eight-way baseline. The
    baseline stays static (it has nowhere to steer); the clustered side
    gets [steering]. Validates like {!config} (with [what = "table2"])
    and refuses [four_way] together with [clusters]. *)

val binary :
  ?clusters:int -> Mcsim_compiler.Pipeline.scheduler -> Mcsim.Experiment.binary
(** The binary a run or sample sweep simulates, compiled for [clusters]
    (default 2: the single-cluster machine runs the same native binary
    the dual machine does) with no unrolling; its trace is
    {!Mcsim.Experiment.trace_of}'s. *)

(** One independently cacheable piece of a sweep: a Table-2 row, a
    detailed run or a sampled estimate. *)
type unit_spec = {
  label : string;  (** the benchmark name *)
  manifest : Mcsim_obs.Manifest.t;  (** identity, with [key] *)
  key : string;  (** ["run"], ["sample"] or a {!Mcsim.Table2.row_store_unit} key *)
  compute : unit -> (string * Mcsim_obs.Json.t) list;
      (** the unit's stored fields: [row] for Table 2, [result] and
          [trace_instrs] for a run, [sampling] and [result] for a sample *)
}

val units :
  ?trace_cache:string ->
  ?profile:Mcsim_util.Profile_counters.t ->
  Protocol.sweep ->
  unit_spec list * ((string * Mcsim_obs.Json.t) list array -> Mcsim_obs.Json.t)
(** The sweep's units, in order, and the function assembling their
    fields into the sweep's result ([{"rows": [...]}] for Table 2, the
    one unit's fields otherwise). Building them validates the sweep —
    the only work done before a unit is computed is config
    construction and manifest digests. [profile] collects a run's
    per-stage counters (allocation included).
    @raise Invalid_argument or Failure as {!config} and
    {!machine_pair}. *)

val run_of_fields : Mcsim_obs.Json.t -> (Mcsim_cluster.Machine.result * int) option
(** A run unit's [(result, trace_instrs)], stored or fresh. *)

val sample_of_fields : seed:int -> Mcsim_obs.Json.t -> Mcsim_sampling.Sampling.t option
(** A sample unit's estimate; [seed] is the policy's offset seed. *)

(** {2 command.json} *)

(** What a [--checkpoint] command records besides its sweep. [profile]
    is [run]'s, [full] is [sample]'s. *)
type options = {
  csv : bool;
  metrics_out : string option;
  retries : int;
  trace_cache : string option;
  result_cache : string option;
  profile : bool;
  full : bool;
}

val command_fields : Protocol.sweep -> options -> (string * Mcsim_obs.Json.t) list
(** {!Protocol.sweep_to_json}'s fields followed by the options. *)

val command_of_fields : (string * Mcsim_obs.Json.t) list -> Protocol.sweep * options
(** Inverse of {!command_fields}, also reading the files earlier
    versions wrote: the kind under ["command"] instead of ["kind"], a
    [sample] whose ["sampling"] is [null] (the default policy seeded by
    ["seed"]), and absent cluster, topology, steering and result-cache
    keys (their defaults). Absent options read as off.
    @raise Failure (one line) as {!Protocol.sweep_of_json}. *)
