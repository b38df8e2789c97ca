(** The multicluster processor model (paper §2 and §4.1).

    One implementation covers every machine of the evaluation: the
    single-cluster 8-issue processor is the configuration whose
    {!Assignment.t} maps every register to cluster 0, and the dual-cluster
    machine is the 2-cluster even/odd assignment with per-cluster Table-1
    row-2 issue limits — both, and the 4- and 8-cluster and four-way
    machines, built by one rule ({!config_for_clusters}).

    The machine is trace-driven: it consumes the committed dynamic
    instruction stream ({!Mcsim_isa.Flat_trace.t}). Speculation is
    modelled by its timing effects — a mispredicted conditional branch
    stalls fetch from the moment it is fetched until it executes, plus a
    redirect penalty (the trace then resumes down the correct path, as in
    the paper's ATOM-based methodology).

    Pipeline per cycle: retire (up to [retire_width] instructions, in
    order, when all copies are complete) — issue (per cluster: greedy
    oldest-first over the dispatch queue under the Table-1 budget) —
    dispatch (in order, up to [dispatch_width]; stalls when a dispatch
    queue entry or physical register is unavailable) — fetch (up to
    [fetch_width] from the i-cache).

    Dual-distributed instructions follow §2.1's five scenarios: the slave
    forwards operands through the master cluster's operand transfer buffer
    and/or receives the result through its own cluster's result transfer
    buffer, with the paper's timing rules generalized to a modeled
    interconnect ({!Interconnect}): a transfer from cluster [src] to
    cluster [dst] takes [hop_latency topology ~src ~dst] cycles, so the
    master is issuable [hop] cycles after an operand-forwarding slave
    issues, and a result-receiving slave is issuable at
    [master_finish - 2 + hop]. At one hop — every pair of the
    point-to-point dual machine — these are the paper's rules exactly
    (master issuable the cycle after the slave; the slave issuable at
    [master_finish - 1], i.e. one cycle after the master for one-cycle
    operations; freed buffer entries reusable the next cycle). An
    issue deadlock on transfer-buffer entries is broken by an
    instruction-replay exception: the blocked instruction and everything
    younger is squashed and refetched after [replay_penalty] cycles. *)

(** Issue-logic implementation. Both engines are cycle-exact models of
    the {e same} machine and produce bit-identical results and counters;
    they differ only in simulator data structures and speed. One
    classifier states the issue rules for both: the first reason a copy
    cannot issue at a given cycle (not waiting, a source, a partner not
    arrived, a transfer buffer short, the starvation freeze, the issue
    budget). Both engines issue the copies it finds ready and take the
    replay victim, the oldest group with a buffer-blocked copy, from it.

    - [`Wakeup] (the default): event-driven. A dispatched copy waits,
      on no list, for its events, each scheduled on a cycle-indexed
      wheel once its cycle is known: a source becomes ready (a
      producer's issue schedules exactly its consumers), a forwarding
      slave's operand or the master's result arrives. Then it joins its
      queue's ready list, kept in age order. A copy the classifier finds
      buffer-blocked even at the next cycle leaves the list again until
      that buffer frees an entry. So the issue walk examines only copies
      the issue budget, the divider or the starvation freeze can still
      block. Suspended scenario-5 slaves wake from a second wheel
      instead of a ROB walk. On the six benchmarks (200 k instructions,
      dual machine) it examines 1.46–2.62 issue and wake entries per
      instruction against the scan engine's 58–233.
    - [`Scan]: the reference implementation — every dispatch-queue entry
      and every ROB entry is rescanned every cycle. Kept for
      differential testing and bisection. *)
type engine = [ `Scan | `Wakeup ]

val profile_counters : unit -> Mcsim_util.Profile_counters.t
(** A counter set with the machine's pipeline stages (fetch, dispatch,
    issue, wake, retire, train), to pass as [?profile]. Per cycle each
    stage records one visit plus the items it examined — for the issue
    and wake stages that is queue/ROB entries scanned, the quantity the
    wakeup engine exists to shrink. *)

type queue_split =
  | Unified  (** one dispatch queue per cluster — the paper's design *)
  | Per_class
      (** separate integer / floating-point / memory queues per cluster,
          as in the R10000 and 21264 the paper contrasts itself with; the
          integer queue gets half the entries, fp and memory a quarter
          each *)

type config = {
  assignment : Assignment.t;
  topology : Interconnect.topology;
      (** inter-cluster transfer latencies; {!Interconnect.Point_to_point}
          is the paper's one-cycle model *)
  steering : Steering.policy;
      (** dispatch-time cluster choice; {!Steering.Static} (every stock
          config) follows the compile-time partition exactly and is
          bit-identical to the pre-steering machine, while a dynamic
          policy forces each instruction's executing cluster at dispatch
          ({!Distribution.plan_steered}) in both engines *)
  dq_entries : int;  (** dispatch-queue entries per cluster (all queues) *)
  phys_per_bank : int;  (** physical registers per bank per cluster *)
  fetch_width : int;
  dispatch_width : int;
  retire_width : int;
  issue_limits : Mcsim_isa.Issue_rules.limits;  (** per cluster *)
  queue_split : queue_split;
  operand_buffer_entries : int;  (** per cluster *)
  result_buffer_entries : int;  (** per cluster *)
  icache : Mcsim_cache.Cache.config;
  dcache : Mcsim_cache.Cache.config;
  predictor : Mcsim_branch.Mcfarling.config;
  redirect_penalty : int;
      (** cycles between a mispredicted branch's execution and the first
          fetch down the right path *)
  replay_threshold : int;  (** stalled cycles before a replay exception *)
  replay_penalty : int;  (** cycles before fetch resumes after a replay *)
}

val config_for_clusters :
  ?width:int -> ?topology:Interconnect.topology -> int -> config
(** [config_for_clusters ?width ?topology n]: the one rule behind every
    stock machine — a [width]-issue machine (default 8; 4 for the
    four-way pair §4 also evaluates) split into [n] clusters of
    [w = width / n] issue slots each, at equal total resources. Per
    cluster:
    - dispatch queue: [16·w] entries (§4.1: 128 on the single machine,
      64 per cluster on the dual one);
    - physical registers: [max 32 (16·w)] per bank (§4.1: 128+128 and
      64+64), never fewer than the bank's 32 architectural registers;
    - issue limits: [Issue_rules.for_width w]
      ({!Mcsim_isa.Issue_rules.for_width}: Table 1 row 1 at [w = 8], row 2
      at [w = 4]);
    - operand and result transfer buffers (§2.1): [min 8 (2·w)] entries
      each — two per issue slot, capped at the eight per cluster of §4.1's
      dual machine, so the 8-issue machine's 16 entries of total storage
      are split evenly beyond two clusters.

    Machine-wide: fetch and dispatch [3·width/2], retire [width]
    (§4.1: 12 and 8). Registers are assigned by {!Assignment.single} at
    one cluster, and above one by index modulo [n] with sp/gp global
    ({!Assignment.create}; §4's even/odd split at [n = 2]). Everything
    else — 64 KB 2-way caches with a 16-cycle memory, the McFarling
    predictor, a 1-cycle redirect, a replay exception after 8 stalled
    cycles costing 6, one unified queue per cluster, {!Steering.Static} —
    is the same for every [n]. [topology] defaults to
    {!Interconnect.Point_to_point}, the paper's one-cycle transfer.
    @raise Invalid_argument unless [n] is 1, 2, 4 or 8 (the message names
    the accepted counts, so the CLI can show it as a one-line error),
    [width] is 8 or 4, and, at width 4, [n] is 1 or 2. *)

val single_cluster : unit -> config
(** [config_for_clusters 1]: the paper's 8-issue baseline. *)

val dual_cluster : unit -> config
(** [config_for_clusters 2]: the paper's dual-cluster machine, two
    4-issue clusters. *)

val validate_config : config -> unit
(** @raise Invalid_argument on out-of-range fields, and when
    [operand_buffer_entries < 2] on 3 or more clusters or on 2 under a
    dynamic [steering] policy: such a machine can give a master two
    forwarded operands, which one entry never holds together. *)

type role = Single_copy | Master_copy | Slave_copy

val role_to_string : role -> string

(** Observable pipeline events, for the Figures 2–5 walkthroughs and for
    tests. [seq] is the dynamic instruction's trace position. *)
type event =
  | Ev_fetch of { cycle : int; seq : int }
  | Ev_dispatch of { cycle : int; seq : int; cluster : int; role : role; scenario : int }
  | Ev_issue of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_operand_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
      (** an operand-forwarding slave wrote into the master cluster's
          operand transfer buffer (at slave issue) *)
  | Ev_result_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
      (** the master wrote into the slave cluster's result transfer buffer
          (at master completion) *)
  | Ev_suspend of { cycle : int; seq : int; cluster : int }
  | Ev_wakeup of { cycle : int; seq : int; cluster : int }
  | Ev_writeback of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_retire of { cycle : int; seq : int }
  | Ev_replay of { cycle : int; seq : int }

val pp_event : Format.formatter -> event -> unit

(** A periodic snapshot of the machine's queue state, for occupancy
    tracking over time (counter tracks in {!Mcsim_obs.Trace_export}).
    Arrays are indexed by cluster. *)
type occupancy = {
  oc_cycle : int;
  oc_rob : int;  (** groups in flight (all clusters share one ROB) *)
  oc_dispatch_queues : int array;  (** waiting entries, all queues of the cluster *)
  oc_operand_buffers : int array;  (** in-use operand transfer-buffer entries *)
  oc_result_buffers : int array;  (** in-use result transfer-buffer entries *)
}

type result = {
  cycles : int;
  retired : int;
  ipc : float;
  single_distributed : int;
  dual_distributed : int;
  replays : int;
  branch_accuracy : float;
  icache_miss_rate : float;
  dcache_miss_rate : float;
  counters : (string * int) list;
      (** detailed named counters (stall reasons, per-scenario counts,
          per-class issues, buffer high-water marks, ...), sorted by
          name *)
  counter_lookup : Mcsim_util.Stats.lookup;
      (** the same counters as a binary-searchable snapshot — what
          {!counter} queries *)
}

val counter : result -> string -> int
(** 0 when absent; O(log n) over the counter snapshot. *)

val run_flat :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_occupancy:(occupancy -> unit) ->
  ?occupancy_period:int ->
  ?max_cycles:int ->
  config ->
  Mcsim_isa.Flat_trace.t ->
  result
(** Simulate the full trace: the machine reads the packed arrays
    directly (see {!Mcsim_isa.Flat_trace}), interns one static
    instruction per pc, and memoizes {!Distribution.plan} per
    (pc, preferred cluster). [engine] defaults to [`Wakeup]; results are
    identical either way. [profile] accumulates per-stage counters (see
    {!profile_counters}). When no [on_event] sink is attached, event
    records are never constructed. [on_occupancy] receives an
    {!occupancy} snapshot every [occupancy_period] cycles (default 16;
    must be >= 1); with no sink, snapshots are never built. Building
    one asserts the wakeup engine's running state against a rescan:
    per-cluster waiting totals, and every copy waiting on a full
    transfer buffer.
    @raise Failure once [max_cycles] (default 10,000) cycles pass with
    no instruction retired — a wedged machine, a model bug, not a user
    error. *)

val run_phased_flat :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_occupancy:(occupancy -> unit) ->
  ?occupancy_period:int ->
  ?max_cycles:int ->
  config ->
  (Assignment.t * Mcsim_isa.Flat_trace.t) list ->
  result
(** Dynamic reassignment of the architectural registers (paper §2.1's
    "simple hardware mechanism" and §6): run the phases back to back on
    one machine (caches and predictor stay warm). Between phases the
    pipeline drains and, if the assignment change moved any register
    (see {!moved_registers}), the machine pays a resynchronization
    overhead of 4 cycles plus one cycle per two architectural registers
    whose cluster placement moved (their values must be copied between
    the register files); a switch that moves nothing is free. Counters
    ["reassignments"] and ["reassigned_registers"] record the activity.
    All phases must keep the cluster count of [config].
    @raise Invalid_argument if a phase changes the cluster count.
    @raise Failure as {!run_flat}, the window restarting with each phase. *)

val moved_registers : Assignment.t -> Assignment.t -> Mcsim_isa.Reg.t list
(** The registers whose cluster placement differs — what the reassignment
    hardware must copy. *)

(** {2 Resumable-state API}

    The building blocks of sampled simulation ({!Mcsim_sampling}): one
    machine state is driven through an alternation of {e functional
    warming} (caches and branch predictor advance over skipped
    instructions, no pipeline model) and {e detailed intervals} (the full
    model on a trace slice, with a warmup prefix whose cycles are
    measured separately). {!run_flat} and {!run_phased_flat} drive the
    same state through whole traces. *)

type state
(** A machine mid-simulation: configuration, caches, predictor,
    pipeline, and counters. *)

val init_state :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_occupancy:(occupancy -> unit) ->
  ?occupancy_period:int ->
  config ->
  state
(** A fresh machine at cycle 0. [engine] defaults to [`Wakeup].
    @raise Invalid_argument as {!validate_config}, or if
    [occupancy_period < 1]. *)

val warm_flat : state -> Mcsim_isa.Flat_trace.t -> lo:int -> hi:int -> unit
(** Functional warming over [trace.(lo) .. trace.(hi - 1)]: the i-cache
    is accessed at line granularity exactly as fetch would, loads and
    stores access the d-cache, and conditional branches run the full
    predict/train sequence — one cycle per instruction, no pipeline.
    The pipeline must be drained (as it is after [init_state] and after
    every completed interval). Counter ["warmed_instructions"]
    accumulates [hi - lo].
    @raise Invalid_argument unless [0 <= lo <= hi <= length trace]. *)

(** Timing of one detailed interval: the warmup prefix's cycles are
    reported separately so the caller can discard them. *)
type interval = {
  iv_warmup_cycles : int;  (** cycles until the warmup prefix retired *)
  iv_cycles : int;  (** cycles of the measured region *)
  iv_retired : int;  (** instructions retired in the measured region *)
}

val run_interval_flat :
  ?max_cycles:int ->
  state ->
  Mcsim_isa.Flat_trace.t ->
  lo:int ->
  hi:int ->
  measure_from:int ->
  interval
(** Detailed simulation of [trace.(lo) .. trace.(hi - 1)] on a drained
    pipeline (caches and predictor stay warm), running until the
    pipeline drains again. Cycles up to and including the one in which
    the instruction count [measure_from - lo] retired are warmup; the
    rest are the measured region. Counter ["detailed_intervals"] counts
    calls.
    @raise Invalid_argument unless [0 <= lo < hi <= length trace] and
    [lo <= measure_from < hi].
    @raise Failure as {!run_flat}, the window restarting with the call. *)

val pool_stats : state -> int * int * int * int
(** [(copy_live, copy_built, group_live, group_built)] for the state's
    record pools. Built counts are high-water marks: once the pipeline
    reaches steady state they stop growing (records are recycled, not
    re-allocated), which tests assert. Live counts include squashed
    copies parked in limbo until their flush watermark passes. *)

val state_result : state -> result
(** Harvest the aggregate counters of everything the state has run.
    [cycles] (and hence [ipc]) counts warming at one cycle per
    instruction — for a sampled {e estimate} of full-run IPC see
    {!Mcsim_sampling}. Call at most once: harvesting folds per-component
    totals into the counter set. *)
