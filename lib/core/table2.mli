(** Table 2 of the paper: percentage speedup/slowdown of the dual-cluster
    machine relative to the single-cluster machine, for the native
    binaries ("none") and the binaries rescheduled by the local
    scheduler ("local"), over the six SPEC92-like benchmarks. *)

type row = {
  benchmark : string;
  none_pct : float;
  local_pct : float;
  single_cycles : int;
  none_cycles : int;
  local_cycles : int;
  none_replays : int;
  local_replays : int;
}

val paper : (string * float * float) list
(** The published Table-2 numbers: (benchmark, none %, local %). *)

val run :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?benchmarks:Mcsim_workload.Spec92.benchmark list ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  ?trace_cache:string ->
  ?result_cache:string ->
  unit ->
  row list
(** Default [max_instrs] 120_000, seed 1, all six benchmarks, the paper's
    8-way machine pair. Pass [Machine.config_for_clusters ~width:4] at 1
    and 2 clusters for the four-way evaluation the paper also ran. Runs
    take a few seconds per benchmark.

    Each benchmark is three {!Experiment.cell}s of one
    {!Experiment.matrix}: ["single"], the native binary on
    [single_config] (the baseline), and ["sched/none"] and
    ["sched/local"], the native and local-scheduler binaries on
    [dual_config]; every binary is compiled for [dual_config]'s cluster
    count. [jobs] (default {!Mcsim_util.Pool.default_jobs}) fans the
    simulations out over that many domains; the rows are bit-for-bit
    identical for every [jobs] value. [engine] selects the detailed-model issue logic
    (default [`Wakeup]); rows are identical either way, so a mismatch
    between [~engine:`Scan] and the default is a simulator bug worth
    bisecting. [sampling] replaces every detailed machine run
    with its sampled estimate — cycle columns become extrapolations
    (see {!Mcsim_sampling.Sampling}).

    [retries]/[backoff]/[inject_fault]/[checkpoint] are the durability
    knobs of {!Experiment.matrix}: with [checkpoint] (kind
    ["experiment"]), completed cells are stored in that directory and an interrupted sweep, rerun
    with the same arguments, resumes and produces identical rows. A
    benchmark that fails all its attempts raises here — use
    {!run_report} to degrade it to a report entry instead.

    [trace_cache] names a {!Trace_store} directory (see
    {!Experiment.matrix}): traces are memory-mapped from there on
    repeat runs instead of being re-walked; rows are unchanged.

    [result_cache] names a {!Result_store} directory — the {e global}
    result cache the [mcsim serve] daemon also answers from. Each row
    is addressed by {!row_store_unit}; cached rows are decoded instead
    of recomputed (and reproduce byte-identical CSV), fresh rows are
    recorded for every later sweep. Unlike [checkpoint], the store is
    not pinned to one sweep identity, so any overlapping sweep anywhere
    reuses the rows. When both are given, the checkpoint governs which
    units run (see the note on {!run_report}) and fresh rows are still
    recorded in the store. *)

type report = {
  rows : row list;  (** in benchmark order, failed benchmarks omitted *)
  failed : (string * string) list;  (** (benchmark, one-line reason) *)
}

val run_report :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?benchmarks:Mcsim_workload.Spec92.benchmark list ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  ?trace_cache:string ->
  ?result_cache:string ->
  unit ->
  report
(** {!run}, degrading permanent per-benchmark failure to data: rows
    hold every benchmark that completed, [failed] names the ones that
    exhausted their retries (the sweep itself never aborts). With
    [checkpoint], rerunning finishes only what is missing; combined
    with [result_cache] the store pre-filter is disabled (the
    checkpoint identity pins the benchmark list, so a shrinking
    benchmark set would read as a stale checkpoint) and the store is
    write-through only. *)

(** {2 Row (de)serialization and the global result cache} *)

val row_json : row -> Mcsim_obs.Json.t
(** A row as a JSON object; floats round-trip losslessly
    ({!Mcsim_obs.Json.to_string} prints shortest representations), so
    [row_of_json (row_json r) = Some r]. *)

val row_of_json : Mcsim_obs.Json.t -> row option
(** Inverse of {!row_json}; [None] on anything it cannot have
    produced. *)

val row_store_unit :
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  max_instrs:int ->
  seed:int ->
  Mcsim_workload.Spec92.benchmark ->
  Mcsim_obs.Manifest.t * string
(** The {!Result_store} identity — [(manifest, unit key)] — of one
    Table-2 row: everything the row is a pure function of. The serve
    daemon and the batch [--result-cache] path both use this, which is
    why they share one cache. *)

val render : row list -> string
(** Side-by-side measured-vs-paper table. *)

val shape_holds : row list -> (bool * string) list
(** The qualitative claims the reproduction must preserve, each with a
    pass flag and description: every benchmark except ora improves under
    the local scheduler; ora degrades; the none column is a slowdown for
    every benchmark; the worst local slowdown is within a factor of two
    of the paper's 25%. *)
