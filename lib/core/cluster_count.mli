(** Cluster-count × interconnect-topology scaling: the generalization
    the paper's "without loss of generality, two clusters" implies.

    For each benchmark, the same total resources (8 issue slots, 128
    dispatch-queue entries, 128+128 physical registers) are split across
    1, 2, 4 or 8 clusters wired point-to-point, as a ring or through a
    crossbar; each partitioned machine runs a binary rescheduled by the
    local scheduler targeting that cluster count. Cycle counts are then
    combined with each machine's clock
    ({!Mcsim_timing.Net_performance.cycle_time} of its config), where
    more clusters mean narrower issue and smaller windows — hence a
    faster clock — until the interconnect's longest hop binds it. *)

type cell = {
  clusters : int;
  topology : Mcsim_cluster.Interconnect.topology;
  cycles : int;
  cycles_pct : float;  (** Table-2 metric vs the 1-cluster machine *)
  multi_fraction : float;  (** dynamic multi-distributed fraction *)
  net_018_pct : float;  (** net speedup at 0.18 µm, clock included *)
}

type row = {
  benchmark : string;
  single_cycles : int;  (** the 1-cluster baseline *)
  cells : cell list;  (** one per {!matrix_points} entry, in order *)
}

val cluster_counts : int list
(** [[1; 2; 4; 8]]. *)

val matrix_points : (int * Mcsim_cluster.Interconnect.topology) list
(** The simulated (clusters, topology) grid: every topology at 2, 4 and
    8 clusters, plus the topology-less 1-cluster baseline. *)

val run :
  ?jobs:int -> ?max_instrs:int -> ?seed:int ->
  ?benchmarks:Mcsim_workload.Spec92.benchmark list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  unit -> row list
(** One {!Experiment.matrix} of the benchmarks against one cell per
    {!matrix_points} entry. [jobs] (default
    {!Mcsim_util.Pool.default_jobs}) fans the independent (benchmark ×
    clusters × topology) compilations and simulations out over that many
    domains; the rows are identical for every [jobs] value.

    [retries]/[backoff]/[inject_fault] are the matrix's per-job knobs (a
    cell that exhausts its retries raises); with [checkpoint], every completed
    (benchmark, clusters, topology) cell is durably recorded in that
    directory and skipped on rerun, so an interrupted sweep resumes
    with identical rows. A directory from a different sweep (seed,
    benchmarks, trace budget or machine config) is refused with
    [Failure]. *)

val find_cell :
  row -> clusters:int -> topology:Mcsim_cluster.Interconnect.topology -> cell option

val render : row list -> string

val rows_json : row list -> Mcsim_obs.Json.t
(** The [clusters] data of [mcsim clusters --metrics-out] and of
    [results.json]: one object per benchmark with the full cell matrix. *)
