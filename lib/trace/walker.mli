(** Trace generation: the stand-in for the paper's ATOM instrumentation.

    The walker executes a program's control-flow graph with a seeded
    deterministic generator driving conditional-branch outcomes and memory
    addresses, and produces the committed dynamic instruction stream the
    trace-driven machines consume.

    Two independent random streams are derived from the seed: one for
    branch outcomes, one for memory addresses. Because spill code never
    draws from the branch stream, the {e native} and {e rescheduled}
    binaries of the same program follow the identical dynamic path — the
    property the paper gets for free by running the same benchmark input
    through both binaries.

    {!profile} performs the paper's profiling run (footnote 1 of §3.5): a
    walk of the {e IL} program counting basic-block executions. With equal
    seeds, [profile] and [trace_flat] see the same branch outcome
    sequence. *)

val profile :
  ?seed:int -> ?max_blocks:int -> Mcsim_ir.Program.t -> Mcsim_ir.Profile.t
(** Walk until [Halt] or [max_blocks] (default 1_000_000) block
    executions. Allocates per static block, not per visit. *)

val trace_flat :
  ?seed:int ->
  ?max_instrs:int ->
  Mcsim_compiler.Mach_prog.t ->
  Mcsim_isa.Flat_trace.t
(** Emit the dynamic instruction stream in the packed struct-of-arrays
    encoding: one element per executed body instruction, [jump] or
    conditional branch ([Fallthrough]/[Halt] emit nothing). Stops at
    [Halt] or once [max_instrs] (default 300_000) instructions have been
    emitted.

    Each static instruction and terminator is encoded (and validated,
    {!Mcsim_isa.Flat_trace.Builder.encode}) once per walk; the walk
    itself allocates nothing per dynamic instruction. The trace's
    storage is allocated once, at [max_instrs] instructions, and never
    grown: a walk that halts early keeps that reservation. *)

val il_trace_length :
  ?seed:int -> ?max_blocks:int -> Mcsim_ir.Program.t -> int
(** Dynamic IL instruction count of the profiling walk (terminator slots
    included) — handy for sizing experiments. *)
