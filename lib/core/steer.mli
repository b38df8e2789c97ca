(** The scheduler × steering × clusters sweep behind [mcsim steer] —
    the paper's closing static-vs-dynamic question (§6) measured with
    the {!Mcsim_cluster.Steering} policy family.

    Every cell compiles one benchmark for one compile-time scheduler
    ([none] — cluster-oblivious code — and the paper's [local]
    scheduler), partitions the machine into 2, 4 or 8 clusters, and runs
    the trace under one dispatch-time steering policy. The
    {!Mcsim_cluster.Steering.Static} cell of each (scheduler, cluster
    count) pair is the baseline the dynamic policies are scored against
    ([vs_static_pct]), and is bit-identical to the pre-steering machine.

    The sweep is one {!Experiment.matrix}: {!Experiment.run} gives one
    job per benchmark for its profile, then one deterministic,
    independently checkpointable job per (benchmark × cell). *)

type cell = {
  scheduler : string;  (** {!Mcsim_compiler.Pipeline.scheduler_name} *)
  steering : Mcsim_cluster.Steering.policy;
  clusters : int;
  cycles : int;
  ipc : float;
  multi_fraction : float;  (** multi-distributed instructions / retired *)
  vs_static_pct : float;
      (** cycle improvement over the same (scheduler, clusters) cell
          under static steering; positive = fewer cycles *)
}

type row = {
  benchmark : string;
  cells : cell list;  (** ordered as {!matrix_points} *)
}

val cluster_counts : int list
(** [\[2; 4; 8\]] — steering needs somewhere to steer to. *)

val scheduler_names : string list
(** [\["none"; "local"\]]. *)

val matrix_points :
  (Mcsim_compiler.Pipeline.scheduler * int * Mcsim_cluster.Steering.policy) list
(** Every (scheduler, cluster count, steering policy) cell, schedulers
    outermost, {!Mcsim_cluster.Steering.all} innermost. *)

val matrix :
  ?max_instrs:int ->
  ?seed:int ->
  ?benchmarks:Mcsim_workload.Spec92.benchmark list ->
  ?topology:Mcsim_cluster.Interconnect.topology ->
  unit ->
  row Experiment.matrix
(** The benchmarks (default all six) against one cell per
    {!matrix_points} entry, wired as [topology]; default 60 000
    instructions, seed 1, the point-to-point interconnect. The
    checkpoint kind is ["steer"]. *)

val find_cell :
  row ->
  scheduler:string ->
  clusters:int ->
  steering:Mcsim_cluster.Steering.policy ->
  cell option

val render : row list -> string
(** Text matrix: one line per (benchmark, scheduler, cluster count),
    static cycles plus each dynamic policy's [vs_static_pct]. *)

val csv : row list -> string
(** One line per cell:
    [benchmark,scheduler,clusters,steering,cycles,ipc,multi_fraction,vs_static_pct]. *)

val rows_json : row list -> Mcsim_obs.Json.t
(** One object per benchmark: its name and {!csv}'s columns of each
    cell. *)
