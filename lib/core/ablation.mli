(** Ablation studies for the design choices DESIGN.md calls out. Each
    sweep runs one benchmark across a one-dimensional design-space slice
    and reports cycles (and the Table-2 metric against a single-cluster
    baseline) per point.

    A sweep is an {!Experiment.matrix} of (cell, baseline cell) pairs:
    the cell is the point's binary on the point's machine, the baseline
    is the native binary on the stock single-cluster machine — or, for
    [memory], on a single-cluster machine with the point's memory. Its
    one row is the sweep. The checkpoint kind is ["ablation"], and the
    identity is the sweep name and its point labels, so a directory
    holding a different sweep (name, benchmark, trace budget or point
    set) is refused with [Failure]. *)

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

val matrix :
  ?max_instrs:int -> which -> Mcsim_workload.Spec92.benchmark -> sweep Experiment.matrix
(** One sweep on one benchmark; [max_instrs] defaults to 60_000. *)

val unrolling_kernel : sweep Experiment.matrix
(** The [Unroll] sweep on a hand-written reduction kernel whose
    iterations are genuinely independent apart from one accumulator —
    the code shape the paper's unrolling proposal assumes — at 40 000
    instructions. *)

val render : sweep -> string

val sweep_json : sweep -> Mcsim_obs.Json.t
(** Name, benchmark and one object per point. *)

val csv : sweep -> string
(** Header + one line per point: benchmark, sweep, point label, cycles,
    Table-2 metric, replays, dual-distributed instructions. *)
