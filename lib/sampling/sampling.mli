(** Sampled simulation: systematic interval sampling with functional
    warming (SMARTS [Wunderlich et al., ISCA'03] applied to the
    multicluster model).

    Instead of running the detailed machine model over every committed
    instruction, the trace is covered by an alternation of {e functional
    warming} (caches and branch predictor advance, no pipeline —
    {!Mcsim_cluster.Machine.warm_flat}) and evenly spaced {e detailed
    intervals}. Each detailed interval simulates [warmup + detail]
    instructions on the full model; the warmup prefix re-establishes
    pipeline and in-flight-miss state and its cycles are discarded, and
    the [detail] suffix contributes one IPC observation. The per-interval
    observations aggregate into a mean IPC with a Student-t confidence
    interval ({!Mcsim_util.Stats.confidence_interval}).

    Determinism: the whole run is a pure function of
    [(policy, config, trace)] — the only randomness is the systematic
    sampling offset, drawn from a generator seeded by [policy.seed] — so
    equal inputs give bit-for-bit equal results, in particular
    independently of any surrounding parallel fan-out. *)

type policy = {
  interval : int;  (** instructions from one detailed-unit start to the next *)
  warmup : int;  (** detailed instructions whose cycles are discarded *)
  detail : int;  (** detailed instructions measured per unit *)
  seed : int;  (** drives the systematic sampling offset *)
}

val default_policy : policy
(** [{ interval = 25_000; warmup = 2_000; detail = 2_000; seed = 1 }] —
    a 16% detailed fraction; on the seed workloads this lands within a
    few percent of full-run IPC at a >5x wall-clock speedup. *)

val validate_policy : policy -> unit
(** @raise Invalid_argument unless [interval >= 1], [warmup >= 0],
    [detail >= 1] and [warmup + detail <= interval]. *)

val policy_to_string : policy -> string
(** ["interval:warmup:detail"], e.g. ["20000:2000:2000"]. *)

val policy_of_string : ?seed:int -> string -> (policy, string) Stdlib.result
(** Parse ["interval:warmup:detail"] and validate; [seed] defaults
    to 1. Errors are one-line human-readable messages. *)

(** One detailed unit's observation. *)
type interval_stat = {
  index : int;  (** unit number, from 0 *)
  start : int;  (** trace position of the unit's first instruction *)
  warmup_cycles : int;
  detail_cycles : int;
  detail_instrs : int;
  ipc : float;  (** [detail_instrs / detail_cycles] *)
}

type t = {
  policy : policy;
  trace_instrs : int;
  intervals : interval_stat list;  (** in trace order *)
  mean_ipc : float;
      (** the reciprocal of mean per-unit CPI — the instruction-weighted
          aggregation a full run computes, not the arithmetic mean of
          per-unit IPCs (which would overweight fast units) *)
  ci_halfwidth : float;
      (** 95% two-sided Student-t halfwidth on the per-unit CPI mean,
          mapped to IPC space by the delta method *)
  detailed_instrs : int;  (** instructions simulated on the full model *)
  warmed_instrs : int;  (** instructions functionally warmed *)
  est_cycles : int;  (** [trace_instrs / mean_ipc], the full-run estimate *)
  machine : Mcsim_cluster.Machine.result;
      (** aggregate counters of all detailed and warming work; its
          [cycles]/[ipc] reflect the sampled run's own bookkeeping (one
          cycle per warmed instruction), not an estimate — use
          {!estimate} for that *)
}

val ci_rel : t -> float
(** [ci_halfwidth /. mean_ipc]; 0 when the mean is 0. *)

val detailed_fraction : t -> float
(** [detailed_instrs /. trace_instrs]. *)

val run_flat :
  ?max_cycles:int ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?policy:policy ->
  Mcsim_cluster.Machine.config ->
  Mcsim_isa.Flat_trace.t ->
  t
(** Sample-simulate the trace (warming and the detailed intervals read
    the packed arrays directly, and interval sub-traces are O(1) views).
    The first detailed unit starts at a seeded offset in
    [[0, interval - warmup - detail]]; subsequent units start every
    [interval] instructions; instructions between and after units are
    functionally warmed. [engine] selects the detailed-model
    issue logic (default [`Wakeup]); results are identical either way.
    @raise Invalid_argument if the policy is invalid or the trace is too
    short for two complete units (no meaningful confidence interval).
    @raise Failure as {!Mcsim_cluster.Machine.run_flat} on [max_cycles]. *)

val estimate : t -> Mcsim_cluster.Machine.result
(** The sampled stand-in for a full {!Mcsim_cluster.Machine.run_flat}
    result: [cycles = est_cycles], [retired = trace_instrs],
    [ipc = mean_ipc], rates and counters from the sampled run. This is what
    [Experiment.matrix ~sampling] feeds into the Table-2 arithmetic. *)

val render : t -> string
(** Human-readable summary: policy, coverage, mean IPC ± CI. *)
