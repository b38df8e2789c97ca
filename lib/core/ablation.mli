(** Ablation studies for the design choices DESIGN.md calls out. Each
    sweep runs one benchmark across a one-dimensional design-space slice
    and reports cycles (and the Table-2 metric against a single-cluster
    baseline) per point.

    A sweep is a list of (cell, baseline cell) pairs run through
    {!Experiment.matrix}: the cell is the point's binary on the point's
    machine, the baseline is the native binary on the stock
    single-cluster machine — or, for [memory], on a single-cluster
    machine with the point's memory. Every entry point takes [?jobs]
    (default {!Mcsim_util.Pool.default_jobs}; results are identical for
    every value), [?max_instrs] (the committed-trace length), the
    matrix's per-job durability knobs ([?retries], [?backoff],
    [?inject_fault]) and [?checkpoint]: with a checkpoint
    directory, each completed cell is durably recorded and skipped when
    the sweep reruns, so an interrupted sweep finishes from where it
    died with identical points. A directory holding a different sweep
    (name, benchmark, trace budget or point set) is refused with
    [Failure]. A cell that exhausts its retries raises. *)

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

type which =
  | Buffers  (** operand/result transfer-buffer entries per cluster, 2–32 (paper: 8) *)
  | Threshold  (** the local scheduler's compile-time balance constant, 1–32 *)
  | Partitioners  (** none / random / round-robin / local binaries on the dual machine *)
  | Globals
      (** global-register designation: none / sp only / sp+gp (paper) — the
          assignment the hardware uses for the same native binary *)
  | Dq
      (** the single-cluster machine with dispatch queues of 32–256 entries
          — the compress effect's other half (paper §4.2 discussion) *)
  | Unroll
      (** the §6 loop-unrolling extension: inner loops unrolled 1/2/4 times,
          then the local scheduler, on the dual machine *)
  | Queues
      (** the paper's single dispatch queue per cluster vs the
          R10000-style per-class split (§1), at equal total entries *)
  | Memory
      (** memory fetch latency 4–64 cycles (paper: 16), each point against
          a single-cluster baseline with the same memory *)
  | Mshrs
      (** conventional 1–8-entry MSHR files vs the paper's inverted MSHR
          (its reference [12]) *)

val all : (string * which) list
(** Every sweep under its command-line name, in menu order. *)

val run :
  ?jobs:int -> ?max_instrs:int -> ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  which -> Mcsim_workload.Spec92.benchmark -> sweep
(** One sweep on one benchmark; [max_instrs] defaults to 60_000. *)

val unrolling_kernel :
  ?jobs:int -> ?max_instrs:int -> ?retries:int -> ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  unit -> sweep
(** The [Unroll] sweep on a hand-written reduction kernel whose
    iterations are genuinely independent apart from one accumulator —
    the code shape the paper's unrolling proposal assumes.
    [max_instrs] defaults to 40_000. *)

val render : sweep -> string

val sweep_json : sweep -> Mcsim_obs.Json.t
(** Name, benchmark and one object per point. *)
