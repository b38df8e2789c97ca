(** The wire protocol of the sweep service.

    Messages are length-prefixed JSON frames on a Unix-domain stream
    socket: a 4-byte big-endian payload length followed by that many
    bytes of minified {!Mcsim_obs.Json} — trivially incremental to
    decode, language-agnostic, and bounded ({!max_frame_bytes}) so a
    hostile peer cannot make the server buffer unbounded input. The
    JSON parser itself bounds nesting depth
    ({!Mcsim_obs.Json.max_depth}), so socket bytes can never overflow
    the stack.

    Requests carry a client-chosen [id] that every response echoes, so
    one connection can hold several outstanding requests. A [submit]
    streams back one [unit] response per sweep unit as it is resolved
    (from cache, computed, or coalesced onto another client's
    computation) and finishes with a [done] carrying the assembled
    result and the per-request served counters — or an [error]. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (16 MiB). *)

(** {2 Framing} *)

val frame_string : Mcsim_obs.Json.t -> string
(** The complete frame (length prefix + minified payload) for one
    message. @raise Failure when the payload exceeds
    {!max_frame_bytes}. *)

val write_frame : Unix.file_descr -> Mcsim_obs.Json.t -> unit
(** Write one frame, handling short writes. Raises [Unix_error] as the
    write does. *)

(** Incremental frame decoder: feed it raw bytes as they arrive, pop
    complete frames.

    Its cost grows with the square of a frame's size: [push] appends by
    concatenation and [pop] copies the unread tail, so a frame of [B]
    bytes arriving in pieces of [p] bytes copies about [B * B / (2 * p)]
    bytes before it pops, and a push carrying [k] frames copies its tail
    [k] times. Requests and answers are small (perfbench's cached sweeps
    average about 750 bytes a frame), so this stays cheap in practice. *)
type reader

val reader : unit -> reader

val push : reader -> string -> unit
(** Append received bytes. *)

val pop : reader -> Mcsim_obs.Json.t option
(** The next complete frame, or [None] until more bytes arrive.
    @raise Failure (one line) on an out-of-range length prefix or an
    unparseable payload — the connection cannot be trusted after
    that. *)

val buffered : reader -> int
(** Bytes currently buffered (0 exactly between frames). *)

val read_frame : Unix.file_descr -> reader -> Mcsim_obs.Json.t option
(** Blocking read of the next frame (the client side's loop), through
    one 64 KiB buffer the reader keeps from its first call on: [None]
    on a clean EOF between frames.
    @raise Failure on EOF mid-frame or a protocol violation. *)

(** {2 Sweeps} *)

(** [clusters = None] keeps the sweep's historical machine selection
    ([machine], or single-vs-dual for Table2); [Some n] runs the n-way
    partitioned machine wired as [topology] instead, with instructions
    placed at dispatch by [steering]. All three fields are omitted from
    the wire format at their defaults ([None], point-to-point,
    {!Mcsim_cluster.Steering.Static}), so frames from pre-interconnect
    and pre-steering peers decode unchanged. *)
type sweep =
  | Table2 of {
      benchmarks : Mcsim_workload.Spec92.benchmark list;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      sampling : Mcsim_sampling.Sampling.policy option;
      four_way : bool;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }
  | Run of {
      bench : Mcsim_workload.Spec92.benchmark;
      machine : [ `Single | `Dual ];
      scheduler : Mcsim_compiler.Pipeline.scheduler;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }
  | Sample of {
      bench : Mcsim_workload.Spec92.benchmark;
      machine : [ `Single | `Dual ];
      scheduler : Mcsim_compiler.Pipeline.scheduler;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      policy : Mcsim_sampling.Sampling.policy;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }

val sweep_kind : sweep -> string
(** ["table2"], ["run"] or ["sample"]. *)

val machines : (string * [ `Single | `Dual ]) list
(** The [machine] names, as the wire form and [--machine] spell them. *)

val engines : (string * Mcsim_cluster.Machine.engine) list
(** The [engine] names ({!Mcsim_obs.Manifest.engine_name}'s spellings). *)

val machine_name : [ `Single | `Dual ] -> string

val sweep_to_json : sweep -> Mcsim_obs.Json.t

val sweep_of_json : Mcsim_obs.Json.t -> sweep
(** @raise Failure (one line) on anything {!sweep_to_json} cannot have
    produced — unknown kinds, benchmarks, schedulers, missing or
    mistyped fields. *)

(** {2 Requests} *)

type request =
  | Submit of { id : int; sweep : sweep }
  | Stats of int
  | Ping of int
  | Stop of int

val request_to_json : request -> Mcsim_obs.Json.t

val request_of_json : Mcsim_obs.Json.t -> request
(** @raise Failure (one line) on a malformed request. *)

(** {2 Responses} *)

(** How a request's units were satisfied; [s_cached + s_computed +
    s_coalesced = s_units]. A resubmitted sweep is fully cache-served
    exactly when [s_computed = 0 && s_coalesced = 0]. *)
type served = { s_units : int; s_cached : int; s_computed : int; s_coalesced : int }

val served_of_json : Mcsim_obs.Json.t -> served option

val unit_response :
  id:int -> index:int -> total:int -> label:string -> source:string ->
  data:Mcsim_obs.Json.t -> Mcsim_obs.Json.t
(** One streamed per-unit progress event; [source] is ["cache"],
    ["computed"] or ["coalesced"]. *)

val done_response :
  id:int -> kind:string -> result:Mcsim_obs.Json.t -> served:served -> Mcsim_obs.Json.t

val error_response : id:int -> message:string -> Mcsim_obs.Json.t
val stats_response : id:int -> metrics:Mcsim_obs.Json.t -> Mcsim_obs.Json.t
val pong_response : id:int -> Mcsim_obs.Json.t
val stopping_response : id:int -> Mcsim_obs.Json.t
