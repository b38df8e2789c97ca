(** Net-performance arithmetic of §4.2 and §5, generalized to N clusters
    with a modeled interconnect.

    The paper's break-even argument: run time = clock cycles × clock
    period, so a partitioned machine that takes [slowdown_pct] percent
    more cycles wins iff its clock period is at least
    [required_clock_reduction_pct slowdown_pct] percent shorter. The
    worked example in §4.2: a 25% cycle slowdown needs a clock 20%
    faster.

    The N-cluster clock is the slower of two constraints: the Palacharla
    per-cluster structures ({!Palacharla.per_cluster_config}) and one
    hop of the inter-cluster interconnect ({!interconnect_delay}) —
    narrower clusters clock faster until the interconnect wiring binds,
    which is what distinguishes the topologies at high cluster counts. *)

val speedup_pct : single_cycles:int -> dual_cycles:int -> float
(** The Table-2 metric: [100 - 100 * dual/single]; negative = slowdown. *)

val required_clock_reduction_pct : float -> float
(** [required_clock_reduction_pct slowdown_pct] — the paper's
    [100 - 100 * 1/(1 + s/100)] (from [100 - 100 * C_single/C_dual]).
    Requires [slowdown_pct > -100]. *)

val interconnect_delay :
  clusters:int -> topology:Mcsim_cluster.Interconnect.topology ->
  Palacharla.feature -> float
(** Picoseconds one interconnect hop takes: wire-dominated, scaling with
    the topology's longest link (point-to-point spans the floorplan,
    [clusters - 1] pitches; ring one pitch; crossbar half the
    floorplan), at 100 ps per cluster pitch. 0 for one cluster. *)

val cluster_cycle_time :
  clusters:int -> topology:Mcsim_cluster.Interconnect.topology ->
  Palacharla.feature -> float
(** Max of the Palacharla per-cluster cycle time and
    {!interconnect_delay} — the clock of the [clusters]-way machine. *)

val clock_ratio :
  clusters:int -> topology:Mcsim_cluster.Interconnect.topology ->
  Palacharla.feature -> float
(** [T_single / T_n]: how much faster the partitioned machine clocks
    than the 8-issue monolith (1.0 at one cluster). *)

val net_runtime_ratio_n :
  single_cycles:int -> cycles:int -> clusters:int ->
  topology:Mcsim_cluster.Interconnect.topology ->
  feature:Palacharla.feature -> float
(** Partitioned run time / single run time when each machine clocks at
    its own cycle time: [(cycles * T_n) / (single_cycles * T_single)].
    Below 1.0 the partitioned machine is net faster. *)

val net_speedup_pct_n :
  single_cycles:int -> cycles:int -> clusters:int ->
  topology:Mcsim_cluster.Interconnect.topology ->
  feature:Palacharla.feature -> float
(** [100 - 100 * net_runtime_ratio_n]; positive = partitioned wins. *)
