(** The paper's experimental flow (§4), end to end.

    For one benchmark program: profile it, produce the {e native} binary
    (cluster-oblivious allocation) and one {e rescheduled} binary per
    requested scheduler, generate the committed traces, and run

    - the native binary on the single-cluster machine (the baseline),
    - each binary on the dual-cluster machine,

    reporting the paper's percentage speedup/slowdown metric
    [100 - 100 * (C_dual / C_single)] per scheduler. *)

type run = {
  scheduler : string;  (** "none", "local", ... *)
  dual : Mcsim_cluster.Machine.result;
  speedup_pct : float;
  static_single : int;  (** static single-distributed machine instructions *)
  static_dual : int;
  spills : int;  (** live ranges spilled to memory *)
}

type comparison = {
  benchmark : string;
  trace_instrs : int;
  single : Mcsim_cluster.Machine.result;  (** native on the single-cluster machine *)
  runs : run list;  (** one per scheduler, in request order *)
}

val default_schedulers : (string * Mcsim_compiler.Pipeline.scheduler) list
(** [("none", Sched_none); ("local", default_local)] — the two columns of
    Table 2. *)

val scheduler_ident : Mcsim_compiler.Pipeline.scheduler -> string
(** The parameter-bearing identity string used as the [scheduler] field
    of a {!Trace_store.key} (e.g. ["local:2:0"]) — unlike
    {!Mcsim_compiler.Pipeline.scheduler_name}, distinct parameters give
    distinct idents, so differently-tuned schedulers never share a
    cached trace. *)

val scheduler_ident_n : clusters:int -> Mcsim_compiler.Pipeline.scheduler -> string
(** {!scheduler_ident} for a binary compiled for [clusters] clusters:
    the cluster count changes the partitioning and the residue-class
    register assignment, hence the trace, so non-default counts carry a
    ["@Ncl"] suffix (e.g. ["local:2:0@4cl"]). [~clusters:2] is exactly
    {!scheduler_ident}, so historical trace-store entries keep their
    keys. *)

val run_many :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?schedulers:(string * Mcsim_compiler.Pipeline.scheduler) list ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  ?trace_cache:string ->
  Mcsim_ir.Program.t list ->
  comparison list
(** Run the flow for many benchmarks, fanning the independent
    (benchmark × scheduler × machine-config) simulations out over
    [jobs] domains (default {!Mcsim_util.Pool.default_jobs}; [~jobs:1]
    runs serially). Results are in benchmark order regardless of [jobs].

    With [sampling], every machine simulation (single-cluster baseline
    and each dual run) is the sampled estimate
    ({!Mcsim_sampling.Sampling.estimate}) instead of a full detailed
    run: same [comparison] shape, cycles and IPC are the sampled
    extrapolations. Traces must be long enough for two complete sampling
    units (@raise Invalid_argument otherwise).

    [retries], [backoff] and [inject_fault] are per-unit durability
    knobs, forwarded to {!Mcsim_util.Pool.parallel_map_status}; a
    benchmark whose retries are exhausted raises its last exception
    after the rest of the sweep has finished (use {!run_many_status}
    for graceful degradation instead).

    [checkpoint] names a durable {!Checkpoint} directory: every
    completed unit (per-benchmark preparation metadata, the
    single-cluster baseline, each scheduler's dual run) is recorded
    there as it finishes and skipped on the next call, so an
    interrupted sweep resumes where it died and returns exactly what
    the uninterrupted sweep would have. A directory written by a
    different sweep (config, seed, engine, sampling, schedulers,
    benchmark set or trace budget) is refused with [Failure].

    Determinism: every simulation derives all randomness from [seed]
    (and, under [sampling], the policy's own seed) plus its task
    description, and tasks share only immutable data (the per-benchmark
    profile, native binary and trace), so the output is bit-for-bit
    identical for every [jobs] value — and, because cached units are
    exact recordings, for every interruption point.

    [trace_cache] names a {!Trace_store} directory: every trace the
    sweep needs (the native binary's and each rescheduled binary's) is
    looked up there by [(benchmark name, scheduler, seed, max_instrs)]
    and memory-mapped on a hit instead of being re-walked; misses are
    generated as usual and saved for the next run. Cached traces are
    byte-identical to freshly walked ones, so results are unchanged —
    the store assumes a benchmark name denotes one program. *)

val run_many_status :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?schedulers:(string * Mcsim_compiler.Pipeline.scheduler) list ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  ?trace_cache:string ->
  Mcsim_ir.Program.t list ->
  (comparison, string) result list
(** {!run_many}, degrading failure to data: a benchmark with a unit
    that exhausted its retries yields [Error message] (one line, from
    {!Mcsim_util.Pool.failure_message}) instead of aborting the sweep,
    and with [checkpoint] its completed units remain recorded so only
    the failed ones rerun on resume. *)

val run_benchmark :
  ?max_instrs:int ->
  ?seed:int ->
  ?schedulers:(string * Mcsim_compiler.Pipeline.scheduler) list ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?trace_cache:string ->
  Mcsim_ir.Program.t ->
  comparison
(** [run_many] for a single benchmark, serially. [max_instrs] (default
    120_000) bounds the committed trace length; [seed] (default 1)
    drives the workload's branch outcomes and address streams
    identically across binaries. *)

val speedup_of : comparison -> string -> float option
(** Speedup percentage of a named scheduler's run. *)

val matrix :
  ?jobs:int ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  kind:string ->
  identity:Mcsim_cluster.Machine.config * (string * Mcsim_obs.Json.t) list ->
  max_instrs:int ->
  seed:int ->
  Mcsim_workload.Spec92.benchmark list ->
  (string * int * Mcsim_compiler.Pipeline.scheduler * Mcsim_cluster.Machine.config) list ->
  Mcsim_cluster.Machine.result list list
(** The (benchmark × cell) sweep behind {!Cluster_count.run} and
    {!Steer.run}. Each cell [(key, clusters, scheduler, config)]
    compiles the benchmark with [scheduler] for [clusters] clusters and
    runs its committed trace on [config]; the result holds, per
    benchmark, one machine result per cell, in cell order, identical
    for every [jobs] value.

    Stage 1 is one job per benchmark (program and profile), stage 2 one
    job per cell; [retries]/[backoff]/[inject_fault] apply to both and a
    job that exhausts its retries raises, as in
    {!Mcsim_util.Pool.parallel_map}. With [checkpoint], every completed
    cell is a durable unit keyed [benchmark/key] and skipped on rerun;
    the directory's identity is [kind], a manifest of [seed], the
    benchmark list, [max_instrs] and [identity]'s machine, and its
    sweep parameters. A directory from a different sweep is refused
    with [Failure]. *)
