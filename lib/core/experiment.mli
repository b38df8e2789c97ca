(** The paper's experimental flow (§4) as one sweep runner.

    Every experiment is the same operation repeated: compile a program
    into a {!binary}, generate its committed trace and run that trace on
    a machine configuration. A {!cell} names one such (binary, machine)
    pair; a {!matrix} is a list of programs against a list of cells,
    and {!run} runs one. Table 2, the cluster-count and steering
    matrices, every ablation sweep and the unrolling kernel are each a
    matrix value: a list of cells plus a projection of the results into
    their own row type. *)

type binary = {
  clusters : int;  (** cluster count the binary is scheduled for *)
  scheduler : Mcsim_compiler.Pipeline.scheduler;
  unroll : int;  (** inner-loop unroll factor applied before compiling; 1 = none *)
}

val native : binary
(** The cluster-oblivious binary: 2 clusters, [Sched_none], no unrolling. *)

type cell = {
  key : string;  (** unique within a sweep; the checkpoint unit is [program/key] *)
  binary : binary;
  config : Mcsim_cluster.Machine.config;
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

val trace_of :
  ?trace_cache:string ->
  ?profile:Mcsim_ir.Profile.t Lazy.t ->
  seed:int ->
  max_instrs:int ->
  Mcsim_ir.Program.t ->
  binary ->
  Mcsim_isa.Flat_trace.t
(** [trace_of ~seed ~max_instrs program binary] is the committed trace
    of [program] compiled as [binary], walked with [seed] for at most
    [max_instrs] instructions. The compiler uses [profile], by default
    the profiling walk of [program] with [seed]; an unrolled binary is
    re-profiled. Under [trace_cache] (a {!Trace_store} directory) the
    trace is memory-mapped from there when present — with no profile
    walk, compile or trace walk — and saved after a miss. The store key
    is the program name, [seed], [max_instrs] and {!scheduler_ident_n},
    with an ["@xF"] suffix for an unroll factor [F > 1], so the store
    assumes a program name denotes one program. Cached traces are
    byte-identical to walked ones. *)

type 'row matrix = {
  kind : string;  (** the checkpoint kind *)
  identity : Mcsim_cluster.Machine.config * (string * Mcsim_obs.Json.t) list;
      (** the checkpoint manifest's machine and the sweep's own parameters *)
  programs : Mcsim_ir.Program.t list;
  cells : cell list;
  seed : int;  (** drives the profile and trace walks of every binary *)
  max_instrs : int;  (** bounds each committed trace *)
  sampling : Mcsim_sampling.Sampling.policy option;
      (** the sampled estimate ({!Mcsim_sampling.Sampling.estimate})
          instead of the detailed run *)
  row : Mcsim_ir.Program.t -> (cell * Mcsim_cluster.Machine.result) list -> 'row;
      (** one program's row from its cells' results, in cell order *)
}
(** A sweep: every program on every cell, each program's results
    projected into a row. The record holds everything a row depends on,
    so a new axis or a different trace length is a record update. *)

val run :
  ?jobs:int ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?trace_cache:string ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  'row matrix ->
  ('row, Mcsim_util.Pool.failure) result list
(** Run a matrix: per program, its row, or the program's first failure.
    No argument changes a row.

    Two stages fan out over [jobs] domains (default
    {!Mcsim_util.Pool.default_jobs}). Stage 1 is one job per program
    with a cell still to run, computing its profile; stage 2 is one job
    per (program × cell) not yet recorded, which compiles and walks the
    cell's binary and runs it on the cell's config with [engine]. A
    program whose stage-1 job failed runs no stage-2 job. Jobs share
    only immutable data, so the rows are identical for every [jobs]
    value, and for either engine.

    [retries]/[backoff]/[inject_fault] are the per-job durability knobs
    of {!Mcsim_util.Pool.parallel_map_status}; failure degrades to the
    program's [Error] and never aborts the rest of the sweep.

    [checkpoint] names a durable {!Checkpoint} directory: every
    completed cell is the unit [program/key], recorded as it finishes
    and skipped on the next call, so an interrupted sweep resumes with
    identical rows. The directory's identity is [kind], a manifest of
    [engine], [seed], [sampling], the program list, [max_instrs] and
    [identity]'s machine, and [identity]'s sweep parameters; a directory
    from a different sweep is refused with [Failure].

    Each binary's trace comes from {!trace_of}, so [trace_cache] maps
    it from a {!Trace_store} directory when present there (no compile,
    no walk) and saves it after a miss. *)

val get_all : ('a, Mcsim_util.Pool.failure) result list -> 'a list
(** Every [Ok] value, in order; the first [Error]'s exception is
    re-raised with its original backtrace, as if the sweep had run
    serially. *)
