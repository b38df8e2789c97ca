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

(** The machine's queue state at one cycle, for occupancy tracking over
    time (counter tracks in {!Mcsim_obs.Trace_export}). Arrays are
    indexed by cluster. *)
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

type state
(** A machine mid-simulation: configuration, caches, predictor,
    pipeline, and counters. *)

val cycle : state -> int
(** The current cycle. *)

val occupancy : state -> occupancy
(** A snapshot of the state's queues at the current cycle. *)

val check_invariants : state -> unit
(** Assert every cross-check of the running state against a rescan:
    every copy waiting on a full transfer buffer sits on that buffer's
    list alone and is still blocked by it at the next cycle; every
    buffer's O(1) room equals an entry scan; every pool slot a queue,
    list, wheel or the ROB holds is in use, and the pools hold exactly
    the in-flight copies and groups; each cluster's physical registers
    are conserved (one per architectural register it keeps plus one per
    in-flight renamed destination, per bank), and each dispatch queue's
    waiting count equals the waiting copies in the ROB. Pass it as
    [on_cycle] to check every cycle.
    @raise Assert_failure on the first broken invariant. *)

val run_flat :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_cycle:(state -> unit) ->
  ?max_cycles:int ->
  config ->
  Mcsim_isa.Flat_trace.t ->
  result
(** Simulate the full trace: the machine reads the packed arrays
    directly (see {!Mcsim_isa.Flat_trace}) and decodes each instruction
    from its code word. Distribution is planned once per static
    instruction and (pc, preferred or, under a dynamic policy, forced
    cluster): a miss runs {!Distribution.plan} or
    {!Distribution.plan_steered} on the interned instruction and
    flattens the plan into an int template, which every later dispatch
    of that pair reads. [engine] defaults to [`Wakeup]; results are
    identical either way. [profile] accumulates per-stage counters (see
    {!profile_counters}). When no [on_event] sink is attached, event
    records are never constructed. [on_cycle] is called with the state
    at the end of every cycle, after the cycle's stages and replay
    checks and before the cycle count advances: sample {!val-occupancy}
    from it, or pass {!check_invariants}. It must not change the state.
    @raise Failure once [max_cycles] (default 10,000) cycles pass with
    no instruction retired — a wedged machine, a model bug, not a user
    error. *)

val run_phased_flat :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_cycle:(state -> unit) ->
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

val init_state :
  ?engine:engine ->
  ?profile:Mcsim_util.Profile_counters.t ->
  ?on_event:(event -> unit) ->
  ?on_cycle:(state -> unit) ->
  config ->
  state
(** A fresh machine at cycle 0. [engine] defaults to [`Wakeup];
    [on_cycle] is called as in {!run_flat}, in every detailed cycle.
    @raise Invalid_argument as {!validate_config}. *)

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

(** {2 The hot path's data structures}

    The machine's own containers, register file, functional units and
    transfer buffers. They live in this compilation unit because the
    machine calls them per copy and per cycle, and dune's dev profile
    compiles every module [-opaque]: a call across units is never
    inlined. Only this module uses them; their signatures are here for
    the unit tests.

    The containers ({!Vec}, {!Deque}, {!Bucket_queue}) hold ints only.
    The machine keeps its copies and groups in pools and stores their
    slots, never the records, in its ready lists, wait lists, wheels and
    ROB. A store of an int into an [int array] skips OCaml's write
    barrier, which every pointer store into a major-heap array pays,
    and a read from one needs no float-array test. The machine makes
    such stores and reads per copy in every stage. *)

(** Growable vector of ints with an allocation-free steady state.

    Backing storage doubles on demand and is never shrunk, so once a
    vector has reached its high-water mark, [push]/[set]/[clear] and the
    in-place [remove_range]/[filter_in_place]/[sort] perform no heap
    allocation. Used on the simulator hot path (ready lists, wait lists,
    event-wheel buckets) where the per-cycle element churn is high but
    the population is bounded. *)
module Vec : sig
  type t

  val create : unit -> t
  (** Empty vector with no backing storage (first [push] allocates). *)

  val length : t -> int
  (** Live elements (the pushed-minus-cleared count, not the capacity). *)

  val get : t -> int -> int
  (** @raise Invalid_argument if the index is out of bounds. *)

  val set : t -> int -> int -> unit
  (** @raise Invalid_argument if the index is out of bounds. *)

  val push : t -> int -> unit
  (** Append, growing the backing array (amortised O(1)). *)

  val clear : t -> unit
  (** Reset length to zero without releasing storage. *)

  val remove_range : t -> pos:int -> len:int -> unit
  (** Delete elements [pos .. pos + len - 1], shifting the rest down (one
      blit, no allocation).
      @raise Invalid_argument unless the range lies within the live prefix. *)

  val filter_in_place : (int -> bool) -> t -> unit
  (** Keep only elements satisfying the predicate, preserving order.
      In place: no allocation. *)

  val sort : cmp:(int -> int -> int) -> t -> unit
  (** In-place insertion sort of the live prefix. O(n + inversions): cheap
      for the nearly-sorted inputs produced by append-mostly-in-order use. *)
end

(** Growable double-ended queue of ints over a circular buffer, with an
    allocation-free steady state.

    Used for the reorder buffer (group slots: dispatch pushes at the
    back, retire pops from the front, a squash pops from the back), for
    the scan engine's dispatch queues, and for the fetch buffer and the
    pending branch-training queue. Random access is by age index (0 =
    front/oldest). No operation wraps an element in an option, so once
    the backing array has reached its high-water mark nothing
    allocates. *)
module Deque : sig
  type t

  val create : unit -> t
  (** Empty, with no backing storage (the first push allocates). *)

  val length : t -> int
  val is_empty : t -> bool

  val push_back : t -> int -> unit

  val pop_front : t -> int
  (** @raise Invalid_argument when empty. *)

  val pop_back : t -> int
  (** @raise Invalid_argument when empty. *)

  val front : t -> int
  (** The oldest element. @raise Invalid_argument when empty. *)

  val back : t -> int
  (** The newest element. @raise Invalid_argument when empty. *)

  val get : t -> int -> int
  (** [get t i] is the i-th oldest element. @raise Invalid_argument when
      out of range. *)

  val iter : (int -> unit) -> t -> unit
  (** Oldest to newest. *)

  val clear : t -> unit
end

(** Event wheel of ints: a monotone priority queue indexed by cycle
    number.

    A ring of buckets (one {!Vec.t} per slot) keyed by an integer cycle.
    Entries may only be added at or above the current floor — the smallest
    key not yet drained — which is exactly the discipline of a cycle-level
    simulator scheduling future events. [drain_upto] visits entries in key
    order and advances the floor; within one key, entries come out in
    insertion order (same-cycle batching).

    The ring wraps modulo its capacity and grows (power of two) when a key
    lands further than one revolution ahead, so arbitrary horizons work.
    Buckets are reused after draining: in steady state the wheel allocates
    nothing. *)
module Bucket_queue : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Empty wheel with floor 0. [capacity] (default 64) is rounded up to a
      power of two and is only the initial horizon; the wheel grows. *)

  val add : t -> key:int -> int -> unit
  (** Schedule an entry at [key].
      @raise Invalid_argument if [key] is below the floor. *)

  val drain_upto : t -> key:int -> (int -> unit) -> unit
  (** Visit every pending entry with key [<= key] in key order (insertion
      order within a key) and advance the floor to [key + 1]. The callback
      may [add] entries at keys [> key]; it must not add at the key being
      drained or below. When the wheel is empty the floor jumps directly to
      [key + 1] without walking buckets. *)

  val exists : t -> (int -> bool) -> bool
  (** Whether some pending entry, at any key, satisfies the predicate.
      Walks the pending keys up from the floor until it has seen every
      entry: for assertions off the hot path. *)
end

(** The slot allocator of a record pool and of a physical register
    bank: the caller keeps one record per slot in its own array, or one
    register per identifier, and recycles them through the slots
    [alloc] and [free] hand out and take back, so the steady state
    performs no minor-heap allocation. Slots are handed out densely: a
    fresh one is always the next after every slot handed out so far,
    so the caller's array grows when that slot falls off its end.
    Recycled slots come back LIFO. Backing storage is pre-sized at
    [create] and doubles on demand; the built population is bounded by
    the caller's maximum number of simultaneously live slots (for the
    machine pools, ROB occupancy x copies per group; for a register
    bank, its size). A slot is an int, so [free] checks its range and
    its in-use mark, not which pool built it. *)
module Freelist : sig
  type t

  val create : ?initial:int -> unit -> t
  (** [initial] pre-sizes the allocator (default 64).
      @raise Invalid_argument when [initial < 1]. *)

  val alloc : t -> int
  (** A free slot: the most recently freed one if any (LIFO), else a
      fresh one, [built] before the call. *)

  val free : t -> int -> unit
  (** Return a slot.
      @raise Invalid_argument on a double free, or a slot this pool
      never handed out. *)

  val in_use : t -> int -> bool
  (** Whether the slot is handed out and not yet freed: the check that
      a slot held by some structure still names a live record. *)

  val live : t -> int
  (** Slots currently handed out. *)

  val built : t -> int
  (** Slots handed out at least once (the pool's high-water mark). *)
end

(** One cluster's register state: per-bank physical register
    allocators ({!Freelist}), rename maps from architectural to physical
    registers, and a scoreboard of result-ready cycles (explicit
    renaming, as in the R10000 and the paper's machines).

    Each bank (integer / floating point) has [num_phys] physical
    registers. At creation every architectural register is mapped to a
    distinct physical register whose value is ready at cycle 0; the rest
    are free, and the bank is full when all [num_phys] are live. The
    rename map covers all 32 architectural indices per bank; a
    multicluster machine simply never looks up registers the cluster
    does not own.

    Renaming an architectural destination returns both the new physical
    register and the previous mapping. The previous mapping is freed when
    the instruction {e retires}; on a squash the caller restores it with
    {!undo_rename} (in reverse dispatch order).

    An architectural register is named by its {e register code},
    [index * 2 + b] with bank bit [b] 0 for integer and 1 for floating
    point: the form the machine decodes from a trace's code words. *)
module Regfile : sig
  type bank = B_int | B_fp

  val bank_of_code : int -> bank
  (** The bank of a register code. *)

  type t

  val create : num_phys:int -> t
  (** Requires [32 <= num_phys <= 65536] (one per architectural register,
      plus headroom for in-flight values).
      @raise Invalid_argument otherwise. *)

  val free_count : t -> bank -> int

  val lookup : t -> int -> int
  (** Current physical register of the architectural register with this
      register code.
      @raise Invalid_argument on a hardwired-zero register. *)

  val rename_packed : t -> int -> int
  (** [rename_packed t rc] allocates a fresh physical register for
      the destination with register code [rc], updates the map, marks the new register
      not-ready, and returns [(new_phys lsl 16) lor prev_phys] — or [-1]
      when the bank is full (dispatch must stall). Physical ids fit in
      16 bits, so nothing is allocated.
      @raise Invalid_argument on a hardwired-zero register. *)

  val undo_rename : t -> bank -> int -> new_phys:int -> prev_phys:int -> unit
  (** [undo_rename t bank index ~new_phys ~prev_phys]: on a squash,
      restore architectural register [index]'s previous mapping in [bank]
      and free [new_phys]. Must be applied in reverse dispatch order. *)

  val release : t -> bank -> int -> unit
  (** Free a physical register (the previous mapping, at retire). *)

  val ready_at : t -> bank -> int -> int
  (** Cycle at which the physical register's value is available to
      consumers; [max_int] while the producer has not issued. *)

  val set_ready : t -> bank -> int -> int -> unit
  (** [set_ready t bank phys cycle]: the producer issued; value available
      from [cycle]. *)
end

(** Operation classes as dense ints, 0–7: the machine records a copy's
    class in an immediate field. The two [Fp_divide] widths have codes of
    their own (their latencies differ); one constant table gives each
    code's {!Mcsim_isa.Op_class.t}, from which its latency comes. *)
module Op_code : sig
  val of_class : Mcsim_isa.Op_class.t -> int
  (** The class's code. *)
end

(** One cluster's functional-unit and issue-slot state for a cycle-driven
    simulator: the Table-1 per-class issue budget
    ({!Mcsim_isa.Issue_rules.limits}, counted per cycle) plus occupancy of
    the unpipelined floating-point divider. Classes are {!Op_code}
    codes. *)
module Fu : sig
  type t

  val create : Mcsim_isa.Issue_rules.limits -> t
  (** One unpipelined divider per [fp_divide] issue slot. *)

  val new_cycle : t -> unit
  (** Reset the per-cycle issue budget. Call at the start of every cycle. *)

  val can_issue : t -> cycle:int -> int -> bool
  (** Issuing one instruction of this class now would exceed no
      applicable cap of the budget (the floating-point classes also share
      the combined [fp_all] cap), and (for fp divides) a divider is idle
      at [cycle]. *)

  val issue : t -> cycle:int -> int -> unit
  (** Consume a slot; occupies the divider for the divide latency.
      @raise Invalid_argument if [can_issue] is false. *)

  val issued_this_cycle : t -> int

  val total_issued : t -> int

  val clear_divider : t -> unit
  (** Squash support: forget all divider occupancy. *)
end

(** Operand / result transfer buffers (paper §2.1, Figure 1).

    Each cluster owns one operand transfer buffer (slaves in the {e other}
    cluster write forwarded source operands into it) and one result
    transfer buffer (masters in the other cluster write forwarded results
    into it). Entries are identified by small integers; the paper uses
    eight of each per cluster.

    Entries are associatively searched by instruction ID in hardware; in
    the model allocation and lookup are by entry id, and occupancy is what
    matters for timing. A freed entry is reusable from the {e next} cycle
    ("this entry can be used by another instruction in the next cycle"),
    which [free ~cycle] honours. Calls come at nondecreasing cycles, as
    the machine's do: a query may look one cycle ahead, but no call goes
    back before the latest [free]. *)
module Transfer_buffer : sig
  type t

  val create : entries:int -> t
  val entries : t -> int

  val available : t -> cycle:int -> int
  (** Entries allocatable at [cycle], in O(1): the entries not in use,
      less those freed in the latest free cycle when [cycle] is that
      cycle. *)

  val available_by_scan : t -> cycle:int -> int
  (** The same count, entry by entry: the reference {!available} is
      checked against. *)

  val alloc : t -> cycle:int -> int
  (** @raise Invalid_argument when full at [cycle]. *)

  val free : t -> cycle:int -> int -> unit
  (** Entry becomes reusable at [cycle + 1]. *)

  val high_water : t -> int
  (** Maximum simultaneous occupancy observed. *)
end
