(** The Table-1 rendering of the evaluation's issue rules (§4.1). *)

val table1 : unit -> string
(** Table 1 regenerated from the live configuration data: issue rules for
    both machines ({!Mcsim_isa.Issue_rules.for_width} at 8 and 4) and the
    functional-unit latencies. *)
