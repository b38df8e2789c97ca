(** McFarling's combining branch predictor (DEC WRL TN-36, 1993), as used
    by the paper (§4.1): a bimodal predictor, a global-history (gshare)
    predictor, and a selector choosing between them per branch.

    Prediction and training are deliberately decoupled: {!predict} is made
    when the instruction is inserted into a dispatch queue and returns a
    token capturing the prediction-time table state; {!train} applies
    the counter updates only when the branch executes. The paper's
    footnote 2 (and the compress anomaly in Table 2) hinge on this lag —
    with a larger dispatch queue, more predictions are made from counters
    that do not yet reflect immediately preceding branches.

    The global history register itself is updated at prediction time with
    the {e actual} outcome (trace-driven simulation resumes down the
    correct path after a misprediction, so the history is repaired
    perfectly by the redirect). *)

type config = {
  bimodal_bits : int;  (** log2 bimodal table entries *)
  global_bits : int;  (** log2 gshare table entries *)
  choice_bits : int;  (** log2 selector table entries *)
  history_bits : int;  (** global history register width *)
}

val default_config : config
(** 4K-entry tables, 12 bits of global history. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when [3 + global_bits + max bimodal_bits
    choice_bits] exceeds the bits of an int (a token would not pack). *)

val predict : t -> pc:int -> int
(** The prediction for the branch at [pc], as a token: a non-negative int
    packing the prediction (read it with {!predicted_taken}) and the
    table indices and component predictions {!train} needs. Tokens are
    plain ints so callers can queue them without allocating. *)

val predicted_taken : int -> bool
(** The direction a {!predict} token predicted. *)

val note_outcome : t -> taken:bool -> unit
(** Shift the actual outcome into the global history register. Call once
    per conditional branch, at prediction time, after {!predict}. *)

val train : t -> int -> taken:bool -> unit
(** Update the bimodal, gshare and selector counters for the branch whose
    {!predict} returned this token. Call when the branch executes. *)

val predictions : t -> int
val mispredictions : t -> int
(** Counted by comparing {!train}'s [taken] with the token's prediction. *)

val accuracy : t -> float
(** 1.0 when nothing trained yet. *)

val reset_stats : t -> unit
