(** Ablation studies for the design choices DESIGN.md calls out. Each
    sweep runs one benchmark across a one-dimensional design-space slice
    and reports dual-cluster cycles (and the Table-2 metric against the
    shared single-cluster baseline).

    Every sweep takes [?jobs] (default {!Mcsim_util.Pool.default_jobs})
    and fans its points out over that many domains with
    {!Mcsim_util.Pool.parallel_map}; results are bit-for-bit identical
    for every [jobs] value. A sweep also takes [?ctx]: pass the same
    {!ctx} to several sweeps over one benchmark to reuse its profile,
    native binary/trace, single-cluster baseline and (memoized)
    local-scheduler binary instead of recomputing them per sweep. When
    [ctx] is given, [max_instrs] is ignored.

    Every sweep also takes the durability knobs of
    {!Mcsim_util.Pool.parallel_map} ([?retries], [?backoff],
    [?inject_fault]) and [?checkpoint]: with a checkpoint directory,
    each completed point is durably recorded (one {!Checkpoint} unit
    per point, keyed by label) and skipped when the sweep reruns, so an
    interrupted sweep finishes from where it died with identical
    points. A directory holding a different sweep (name, benchmark,
    trace budget or point set) is refused with [Failure]. *)

type point = {
  label : string;
  dual_cycles : int;
  speedup_pct : float;
  replays : int;
  dual_distributed : int;
}

type sweep = {
  sweep_name : string;
  benchmark : string;
  points : point list;
}

type ctx
(** Per-benchmark work shared across sweeps: program, profile, native
    binary and trace, single-cluster baseline cycles, and a lazily
    memoized local-scheduler binary/trace. Safe to share with parallel
    sweeps only after the sweep's own setup has forced the memo (every
    sweep in this module does so before fanning out). *)

val make_ctx : ?max_instrs:int -> Mcsim_workload.Spec92.benchmark -> ctx
(** Profile + native compile + trace + single-cluster baseline run for
    one benchmark ([max_instrs] defaults to 60_000). *)

val transfer_buffers :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int -> ?sizes:int list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** Operand/result transfer-buffer entries per cluster (paper: 8).
    Default sizes 2, 4, 8, 16, 32. *)

val imbalance_threshold :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int -> ?thresholds:int list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** The local scheduler's compile-time balance constant. *)

val partitioners :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** none / random / round-robin / local on the dual-cluster machine. *)

val global_registers :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** Global-register designation: none / sp only / sp+gp (paper) — the
    assignment the hardware uses for the same native binary. *)

val dispatch_queue_split :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** Single-cluster machine with dispatch queues of 32–256 entries — the
    compress effect's other half (paper §4.2 discussion). *)

val memory_latency :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int -> ?latencies:int list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** Sensitivity of the dual-vs-single comparison to the memory interface's
    fetch latency (the paper fixes it at 16 cycles); each point re-runs
    both machines with the same memory. *)

val mshr_entries :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** Conventional n-entry MSHR files vs the paper's inverted MSHR (its
    reference [12]): how much the unlimited-outstanding-miss assumption is
    worth on a miss-heavy benchmark. *)

val queue_organization :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** The paper's single dispatch queue per cluster vs the R10000-style
    per-class split it contrasts itself with (§1), at equal total
    entries. *)

val unrolling :
  ?jobs:int -> ?ctx:ctx -> ?max_instrs:int -> ?factors:int list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  Mcsim_workload.Spec92.benchmark -> sweep
(** The §6 loop-unrolling extension: unroll the benchmark's inner loops
    (factors default 1/2/4), reschedule with the local scheduler, and run
    the dual-cluster machine. The single-cluster baseline stays the
    non-unrolled native binary. Factor 1 reuses the context's memoized
    local-scheduler binary (unrolling by 1 is the identity). *)

val unrolling_kernel :
  ?jobs:int -> ?max_instrs:int -> ?factors:int list ->
  ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  unit -> sweep
(** The same sweep on a hand-written reduction kernel whose iterations
    are genuinely independent apart from one accumulator — the code shape
    the paper's unrolling proposal assumes. *)

val render : sweep -> string

val sweep_json : sweep -> Mcsim_obs.Json.t
(** Name, benchmark and one object per point, as a checkpoint stores it. *)
