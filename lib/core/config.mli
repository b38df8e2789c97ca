(** The two machine configurations of the evaluation (§4.1) and the
    Table-1 rendering. *)

val single_cluster : unit -> Mcsim_cluster.Machine.config
(** Alias of {!Mcsim_cluster.Machine.single_cluster}. *)

val dual_cluster : unit -> Mcsim_cluster.Machine.config

val table1 : unit -> string
(** Table 1 regenerated from the live configuration data: issue rules for
    both machines and the functional-unit latencies. *)
