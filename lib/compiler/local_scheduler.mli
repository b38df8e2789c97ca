(** The {e local scheduler} — the paper's live-range partitioning
    algorithm (§3.5).

    Basic blocks are visited in decreasing order of their profiled
    execution estimate (ties broken by static instruction count, larger
    first). Within a block the instructions are traversed bottom-up, in
    order; the first time an instruction is encountered that {e writes} a
    not-yet-assigned local-register-candidate live range, a cluster is
    chosen for that live range:

    - if the estimated run-time instruction distribution in the vicinity
      of the instruction is {e unbalanced} (the clusters' distribution
      counts differ by more than a compile-time constant), the
      under-subscribed cluster is chosen;
    - otherwise the cluster preferred by the majority of the instructions
      that read or write the live range is chosen, where an instruction
      prefers cluster [c] if assigning the live range to [c] would let it
      be distributed to [c] alone.

    Global-register candidates (sp/gp) are never partitioned. *)

val block_order : Mcsim_ir.Program.t -> Mcsim_ir.Profile.t -> int list
(** The visit order: execution estimate descending, then static size
    descending, then block id ascending. Includes unreachable blocks
    (estimate 0) last. *)

val partition :
  ?clusters:int ->
  ?imbalance_threshold:int ->
  Mcsim_ir.Program.t ->
  Mcsim_ir.Profile.t ->
  Partition.t
(** [imbalance_threshold] (default 2) is the paper's compile-time
    constant, in dynamic instructions at the current block's execution
    frequency: the running profile-weighted distribution estimate is kept
    as live ranges are assigned, and when the clusters' counts differ by
    more than the threshold (normalized to the deciding block's execution
    count) the under-subscribed cluster wins. [clusters] (default 2)
    selects the number of clusters to partition across. *)

val partition_with_order :
  ?clusters:int ->
  ?imbalance_threshold:int ->
  Mcsim_ir.Program.t ->
  Mcsim_ir.Profile.t ->
  Partition.t * Mcsim_ir.Il.lr list
(** Also returns the live ranges in the order their clusters were decided
    (the order the paper walks through for Figure 6). *)
