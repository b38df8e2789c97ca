(** Net-performance arithmetic of §4.2 and §5, generalized to N clusters
    with a modeled interconnect.

    The paper's break-even argument: run time = clock cycles × clock
    period, so a partitioned machine that takes [slowdown_pct] percent
    more cycles wins iff its clock period is at least
    [required_clock_reduction_pct slowdown_pct] percent shorter. The
    worked example in §4.2: a 25% cycle slowdown needs a clock 20%
    faster.

    A machine's clock is read from its {!Mcsim_cluster.Machine.config}:
    one cluster's Palacharla structures ({!palacharla_config}: issue
    width [issue_limits.total], window [dq_entries]) and one hop of the
    config's interconnect ({!interconnect_delay}: its cluster count and
    topology), whichever is slower — narrower clusters clock faster until
    the interconnect wiring binds, which is what distinguishes the
    topologies at high cluster counts. *)

val speedup_pct : single_cycles:int -> dual_cycles:int -> float
(** The Table-2 metric: [100 - 100 * dual/single]; negative = slowdown. *)

val required_clock_reduction_pct : float -> float
(** [required_clock_reduction_pct slowdown_pct] — the paper's
    [100 - 100 * 1/(1 + s/100)] (from [100 - 100 * C_single/C_dual]).
    Requires [slowdown_pct > -100]. *)

val palacharla_config :
  Mcsim_cluster.Machine.config -> Palacharla.feature -> Palacharla.config
(** One cluster of the machine as the delay model sees it: issue width
    [issue_limits.total] (per cluster), window [dq_entries] — 8-issue
    with a 128-entry window on the single machine, 4 and 64 on each
    cluster of the dual one. *)

val interconnect_delay : Mcsim_cluster.Machine.config -> Palacharla.feature -> float
(** Picoseconds one interconnect hop takes: wire-dominated, scaling with
    the topology's longest link (point-to-point spans the floorplan,
    [clusters - 1] pitches; ring one pitch; crossbar half the
    floorplan), at 100 ps per cluster pitch. 0 for one cluster. *)

val cycle_time : Mcsim_cluster.Machine.config -> Palacharla.feature -> float
(** The machine's clock period: the max of the Palacharla cycle time of
    {!palacharla_config} and {!interconnect_delay}. *)

val clock_ratio : Mcsim_cluster.Machine.config -> Palacharla.feature -> float
(** [cycle_time (Machine.single_cluster ()) / cycle_time config]: how
    much faster the machine clocks than the 8-issue monolith (1.0 for
    the monolith itself; about 1.19 at 0.35 µm and 1.82 at 0.18 µm for
    the dual machine). *)

val net_runtime_ratio :
  single_cycles:int -> cycles:int -> feature:Palacharla.feature ->
  Mcsim_cluster.Machine.config -> float
(** Run time of [config] over the 8-issue monolith's when each machine
    clocks at its own {!cycle_time}: [(cycles * T) / (single_cycles *
    T_single)]. Below 1.0 the partitioned machine is net faster. *)

val net_speedup_pct :
  single_cycles:int -> cycles:int -> feature:Palacharla.feature ->
  Mcsim_cluster.Machine.config -> float
(** [100 - 100 * net_runtime_ratio]; positive = partitioned wins. *)
