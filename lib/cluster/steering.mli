(** Dynamic dispatch-time instruction steering.

    The paper decides cluster assignment statically, at compile time,
    through the local/global schedulers, and closes (§6) by asking
    whether a dynamic scheme — hardware picking the cluster at dispatch
    — would do better. This module names the rival policy family the
    machine implements; {!Machine.config}[.steering] selects one and the
    dispatch stage of both engines consults it.

    [Static] is not a policy so much as the absence of one: dispatch
    follows the compile-time partition exactly as it always has, and a
    machine configured with it is bit-identical to the pre-steering
    machine (cycles, IPC, every counter). The dynamic policies instead
    {e force} the executing (master) cluster per instruction; the
    register-home plan ({!Distribution.plan_steered}) then builds
    whatever slave copies the forced choice requires. *)

type policy =
  | Static
      (** Compile-time partitioning only — today's machine, unchanged. *)
  | Modulo
      (** Round-robin over the clusters, advancing once per dispatched
          instruction — the cheapest hardware (a log2(N)-bit counter)
          and the paper's §6 strawman for dynamic distribution. *)
  | Dependence
      (** Send the instruction to the cluster that owns the producer of
          its first not-yet-ready source register, so the consumer waits
          next to the value instead of paying an operand transfer;
          falls back to the least-loaded cluster when every source is
          ready or global. *)
  | Load
      (** Argmin over the clusters' running dispatch-queue occupancy
          (the waiting counts the machine already maintains) — pure
          load balancing with no locality term. *)
  | Ineffectual
      (** Kalayappan-style (arXiv 2304.12762): instructions whose
          results are predicted {e dead} — overwritten before any read —
          are exiled to the highest-numbered cluster, keeping the
          effectual program resident in the low clusters; effectual
          instructions steer as [Dependence]. The prediction comes from
          a small per-pc table of saturating counters trained at
          retire. *)

val all : policy list
(** In declaration order, [Static] first. *)

val to_string : policy -> string
(** ["static"], ["modulo"], ["dependence"], ["load"], ["ineffectual"] —
    the names the [--steering] flag and the wire protocol use. *)

val of_string : string -> (policy, string) result
(** Inverse of {!to_string}; [Error] names the unknown policy. *)

val describe : policy -> string
(** One-line decision rule, for tables and [--help] text. *)

val is_dynamic : policy -> bool
(** Every policy but [Static]. *)

val require_clustered : what:string -> policy -> clusters:int -> unit
(** A dynamic policy on a machine with nowhere to steer to is a usage
    error, not a silent no-op. No-op when [policy] is [Static] or
    [clusters >= 2]; otherwise raises [Failure] with the one-line
    message the CLI and the sweep service both report, prefixed by
    [what] (the command name). *)

(** Per-pc ineffectuality predictor: a direct-mapped table of 2-bit
    saturating counters indexed by instruction address. An instruction's
    result is {e dead} when the architectural register it writes is
    overwritten before any instruction reads it; the table is trained at
    retire, when the overwrite (and hence the verdict on the previous
    writer) is architecturally certain. Prediction is the counter's top
    bit, so two consecutive dead retirements are needed before a pc is
    steered as ineffectual. *)
module Ineff_table : sig
  type t

  val create : ?bits:int -> unit -> t
  (** [2^bits] entries, default [12] (4096 counters, one byte each).
      @raise Invalid_argument when [bits] is outside [\[4, 24\]]. *)

  val predict_dead : t -> pc:int -> bool
  (** Counter at [pc]'s slot has reached the predict-dead half. *)

  val train : t -> pc:int -> dead:bool -> unit
  (** Saturating increment when the result proved dead, decrement when
      it was read. *)

  val trainings : t -> int
  (** Total {!train} calls since {!create}/{!reset}. *)

  val dead_trainings : t -> int
  (** {!train} calls with [dead:true]. *)

  val reset : t -> unit
  (** Clear every counter and statistic. *)
end
