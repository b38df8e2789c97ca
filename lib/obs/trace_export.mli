(** Chrome Trace Event Format export of a machine run — the paper's
    Figures 2–5 timing diagrams as an interactive trace, viewable in
    Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing].

    The mapping from machine to trace:

    - One {e process} per cluster (plus process 0, the shared front end),
      one {e thread} per pipeline stage, so every cluster×stage pair gets
      its own track. Pipeline events ([dispatch], [issue], [writeback],
      [suspend]/[wakeup]) are instant events on the owning cluster's
      stage track; [fetch]/[retire]/[replay] land on the front end's.
    - One cycle is one microsecond of trace time.
    - Each instruction {e copy} is an async slice (["copy"] category)
      from its dispatch to its last pipeline event, so in-flight copies
      stack up visually per cluster.
    - Master↔slave traffic becomes {e flow events} (arrows): an operand
      forward links the slave's cluster to the master's at slave issue,
      a result forward links the master's cluster to the slave's at
      result arrival.
    - Occupancy samples ({!Mcsim_cluster.Machine.occupancy}) become
      {e counter tracks}: ROB entries on process 0; dispatch-queue,
      operand- and result-transfer-buffer entries per cluster. *)

type t

val create : ?counter_period:int -> Mcsim_cluster.Machine.config -> t
(** An empty trace for a machine of [config]'s shape. [counter_period]
    (default 8) is the cycle stride to sample occupancy at: pass
    {!counter_period} as [Machine.run_flat]'s [occupancy_period].
    @raise Invalid_argument if [counter_period < 1]. *)

val counter_period : t -> int

val observer : t -> Mcsim_cluster.Machine.event -> unit
(** Feed as [~on_event] to {!Mcsim_cluster.Machine.run_flat}. *)

val occupancy_observer : t -> Mcsim_cluster.Machine.occupancy -> unit
(** Feed as [~on_occupancy] to {!Mcsim_cluster.Machine.run_flat}. *)

val to_json : ?manifest:Manifest.t -> t -> Json.t
(** The trace as a Chrome-trace JSON object: [traceEvents] (metadata,
    instant, async, flow and counter events, sorted by timestamp),
    [displayTimeUnit], and [otherData] carrying the manifest. *)

val to_string : ?manifest:Manifest.t -> t -> string
(** {!to_json}, minified. *)

val write_file : ?manifest:Manifest.t -> string -> t -> unit
(** {!to_string} and a newline, written to the path. *)
