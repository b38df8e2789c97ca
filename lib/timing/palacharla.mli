(** Cycle-time model after Palacharla, Jouppi & Smith,
    "Complexity-Effective Superscalar Processors" (ISCA 1997) — the model
    the paper's §4.2/§5 argument rests on.

    The processor cycle is set by the slowest of four structures: rename,
    dispatch-window wakeup+select, register-file read, and operand bypass.
    Gate-dominated delays shrink with the feature size; the bypass network
    is wire-dominated (its length grows with the square of issue width)
    and barely shrinks — which is why wide issue gets relatively more
    expensive at smaller feature sizes.

    The coefficients are calibrated, not transcribed: they reproduce the
    two aggregate anchor points the paper quotes — in a 0.35 µm process
    the worst-case path grows from 1248 ps (4-issue) to 1484 ps (8-issue),
    about +18%; in a 0.18 µm process the same step costs about +82%.
    A machine's {!config} is read from its configuration by
    [Net_performance.palacharla_config]. *)

type feature = F0_35 | F0_18  (** process generation, µm *)

val feature_to_string : feature -> string

type config = {
  issue_width : int;  (** >= 1 *)
  window_size : int;  (** dispatch-queue entries visible to wakeup *)
  feature : feature;
}

val wire_scale : feature -> float
(** Shrink factor for wire-dominated delays — about 0.9 across the
    0.35 → 0.18 shrink. *)

val rename_delay : config -> float
(** Picoseconds. *)

val wakeup_select_delay : config -> float
val regfile_delay : config -> float
val bypass_delay : config -> float

val cycle_time : config -> float
(** Max of the four structure delays. *)

val critical_structure : config -> string
(** Which structure binds the cycle. *)
