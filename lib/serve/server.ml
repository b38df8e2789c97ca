module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Machine = Mcsim_cluster.Machine
module Pool = Mcsim_util.Pool
module P = Protocol

type config = {
  socket_path : string;
  jobs : int;
  retries : int;
  backoff : (int -> float) option;
  result_cache : string option;
  trace_cache : string option;
  log : (string -> unit) option;
  before_compute : (string -> unit) option;
  on_ready : (unit -> unit) option;
}

let default ~socket_path =
  { socket_path; jobs = 1; retries = 0; backoff = None; result_cache = None;
    trace_cache = None; log = None; before_compute = None; on_ready = None }

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; rd : P.reader; mutable alive : bool }

(* An accepted sweep's units with their result-store digests, built once
   per distinct sweep. *)
type plan = {
  pl_kind : string;
  pl_units : Sweep.unit_spec array;
  pl_digests : string array;
  pl_assemble : (string * Json.t) list array -> Json.t;
}

(* Where a unit's answer came from. The wire says "cache" for both of
   the first two; the stats snapshot counts them apart. *)
type tier = Memory | Store | Computed | Coalesced

let source = function
  | Memory | Store -> "cache"
  | Computed -> "computed"
  | Coalesced -> "coalesced"

type submit = {
  sb_client : client;
  sb_id : int;
  sb_plan : plan;
  sb_slots : (string * Json.t) list option array;
  mutable sb_remaining : int;
  mutable sb_cached : int;
  mutable sb_computed : int;
  mutable sb_coalesced : int;
  mutable sb_failed : bool;
}

(* A submit waiting on an in-flight digest; the waiter that started the
   computation reports [Computed], the rest [Coalesced]. *)
type waiter = { w_sub : submit; w_index : int; w_tier : tier }

type job = { jb_digest : string; jb_unit : Sweep.unit_spec }

type counters = {
  mutable c_requests : int;
  mutable c_submits : int;
  mutable c_units_requested : int;
  mutable c_units_memory : int;
  mutable c_units_store : int;
  mutable c_units_computed : int;
  mutable c_units_coalesced : int;
  mutable c_units_failed : int;
  mutable c_connections : int;
}

(* [plans] and [memcache] grow with the distinct sweeps and units served
   and are never evicted. The memcache holds each unit's fields with
   every value already encoded ({!Json.encode}): a store hit's as it is
   read, a computed result's by its worker. Frames splice that text. *)
type state = {
  cfg : config;
  store : Mcsim.Result_store.t option;
  plans : (string, plan) Hashtbl.t;  (* keyed by the minified sweep *)
  memcache : (string, (string * Json.t) list) Hashtbl.t;
  inflight : (string, waiter list ref) Hashtbl.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  counters : counters;
  (* worker hand-off: jobs in, completions out (kicked via self-pipe) *)
  qm : Mutex.t;
  qc : Condition.t;
  jobs_q : job Queue.t;
  mutable stopping : bool;
  done_m : Mutex.t;
  done_q : (string * ((string * Json.t) list, string) result) Queue.t;
  pipe_w : Unix.file_descr;
  mutable stop_requested : bool;
}

let log state fmt =
  Printf.ksprintf (fun s -> match state.cfg.log with Some f -> f s | None -> ()) fmt

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let enqueue_job state jb =
  Mutex.lock state.qm;
  Queue.push jb state.jobs_q;
  Condition.signal state.qc;
  Mutex.unlock state.qm

let take_job state =
  Mutex.lock state.qm;
  while Queue.is_empty state.jobs_q && not state.stopping do
    Condition.wait state.qc state.qm
  done;
  let jb = if Queue.is_empty state.jobs_q then None else Some (Queue.pop state.jobs_q) in
  Mutex.unlock state.qm;
  jb

let push_done state entry =
  Mutex.lock state.done_m;
  Queue.push entry state.done_q;
  Mutex.unlock state.done_m;
  (* Wake the select loop; the pipe never fills because the loop drains
     it every iteration. *)
  try ignore (Unix.write state.pipe_w (Bytes.make 1 '.') 0 1) with Unix.Unix_error _ -> ()

let encode_fields = List.map (fun (k, v) -> (k, Json.encode v))

let worker state =
  let rec loop () =
    match take_job state with
    | None -> ()
    | Some jb ->
      (match state.cfg.before_compute with Some f -> f jb.jb_digest | None -> ());
      let res =
        match
          Pool.parallel_map_status ~retries:state.cfg.retries ?backoff:state.cfg.backoff
            ~jobs:1
            (fun () -> jb.jb_unit.Sweep.compute ())
            [ () ]
        with
        | [ Pool.Done fields ] -> Ok fields
        | [ Pool.Failed f ] -> Error (Pool.failure_message f)
        | _ -> assert false
      in
      (* The store is a cache: a failed write loses the entry, not the
         result, and never the worker. *)
      (match (res, state.store) with
      | Ok fields, Some store -> (
        try
          Mcsim.Result_store.record store ~manifest:jb.jb_unit.Sweep.manifest
            ~key:jb.jb_unit.Sweep.key fields
        with Sys_error msg ->
          log state "unit %s (%s): result-store write failed: %s"
            (String.sub jb.jb_digest 0 8) jb.jb_unit.Sweep.label msg)
      | _ -> ());
      push_done state (jb.jb_digest, Result.map encode_fields res);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let drop_client state c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove state.clients c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    log state "client disconnected (%d left)" (Hashtbl.length state.clients)
  end

let send state c json =
  if c.alive then
    try P.write_frame c.fd json
    with Unix.Unix_error _ | Failure _ -> drop_client state c

let finish state sub =
  let slots =
    Array.map (function Some fields -> fields | None -> assert false) sub.sb_slots
  in
  let served =
    { P.s_units = Array.length sub.sb_slots;
      s_cached = sub.sb_cached;
      s_computed = sub.sb_computed;
      s_coalesced = sub.sb_coalesced }
  in
  send state sub.sb_client
    (P.done_response ~id:sub.sb_id ~kind:sub.sb_plan.pl_kind
       ~result:(sub.sb_plan.pl_assemble slots) ~served)

let resolve state sub i tier fields =
  if sub.sb_client.alive && not sub.sb_failed then begin
    sub.sb_slots.(i) <- Some fields;
    sub.sb_remaining <- sub.sb_remaining - 1;
    let c = state.counters in
    (match tier with
    | Memory ->
      sub.sb_cached <- sub.sb_cached + 1;
      c.c_units_memory <- c.c_units_memory + 1
    | Store ->
      sub.sb_cached <- sub.sb_cached + 1;
      c.c_units_store <- c.c_units_store + 1
    | Computed ->
      sub.sb_computed <- sub.sb_computed + 1;
      c.c_units_computed <- c.c_units_computed + 1
    | Coalesced ->
      sub.sb_coalesced <- sub.sb_coalesced + 1;
      c.c_units_coalesced <- c.c_units_coalesced + 1);
    send state sub.sb_client
      (P.unit_response ~id:sub.sb_id ~index:i ~total:(Array.length sub.sb_slots)
         ~label:sub.sb_plan.pl_units.(i).Sweep.label ~source:(source tier)
         ~data:(Json.Obj fields));
    if sub.sb_remaining = 0 then finish state sub
  end

let process_done state (dg, res) =
  match Hashtbl.find_opt state.inflight dg with
  | None -> ()
  | Some waiters ->
    Hashtbl.remove state.inflight dg;
    let ws = List.rev !waiters in
    (match res with
    | Ok fields ->
      Hashtbl.replace state.memcache dg fields;
      List.iter (fun w -> resolve state w.w_sub w.w_index w.w_tier fields) ws
    | Error msg ->
      state.counters.c_units_failed <- state.counters.c_units_failed + 1;
      log state "unit %s failed: %s" (String.sub dg 0 8) msg;
      List.iter
        (fun w ->
          let sub = w.w_sub in
          if sub.sb_client.alive && not sub.sb_failed then begin
            sub.sb_failed <- true;
            send state sub.sb_client
              (P.error_response ~id:sub.sb_id
                 ~message:
                   (Printf.sprintf "unit %s: %s" sub.sb_plan.pl_units.(w.w_index).Sweep.label
                      msg))
          end)
        ws)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* The sweep's plan, built on its first accepted submit. Building the
   units validates the sweep: a well-formed but invalid one (a bad
   cluster count, conflicting flags) raises, is never memoized, and so
   is refused again with the same error on every resubmission. *)
let plan state sweep =
  let key = Json.to_string ~minify:true (P.sweep_to_json sweep) in
  match Hashtbl.find_opt state.plans key with
  | Some p -> p
  | None ->
    let units, assemble = Sweep.units ?trace_cache:state.cfg.trace_cache sweep in
    let units = Array.of_list units in
    let p =
      { pl_kind = P.sweep_kind sweep;
        pl_units = units;
        pl_digests =
          Array.map
            (fun (u : Sweep.unit_spec) ->
              Mcsim.Result_store.digest ~manifest:u.manifest ~key:u.key)
            units;
        pl_assemble = assemble }
    in
    Hashtbl.replace state.plans key p;
    p

(* A refused sweep is answered with a one-line error, and the
   connection stays open. *)
let handle_submit state c ~id sweep =
  state.counters.c_submits <- state.counters.c_submits + 1;
  match plan state sweep with
  | exception (Failure message | Invalid_argument message) ->
    log state "submit #%d refused: %s" id message;
    send state c (P.error_response ~id ~message)
  | p ->
    let total = Array.length p.pl_units in
    state.counters.c_units_requested <- state.counters.c_units_requested + total;
    let sub =
      { sb_client = c;
        sb_id = id;
        sb_plan = p;
        sb_slots = Array.make total None;
        sb_remaining = total;
        sb_cached = 0;
        sb_computed = 0;
        sb_coalesced = 0;
        sb_failed = false }
    in
    log state "submit #%d: %s, %d unit(s)" id p.pl_kind total;
    Array.iteri
      (fun i (u : Sweep.unit_spec) ->
        let dg = p.pl_digests.(i) in
        match Hashtbl.find_opt state.memcache dg with
        | Some fields -> resolve state sub i Memory fields
        | None -> (
          let disk =
            match state.store with
            | None -> None
            | Some store -> (
              match Mcsim.Result_store.find store ~manifest:u.manifest ~key:u.key with
              | Some (Json.Obj fields) ->
                Some (encode_fields (List.filter (fun (k, _) -> k <> "unit_key") fields))
              | Some _ | None -> None)
          in
          match disk with
          | Some fields ->
            Hashtbl.replace state.memcache dg fields;
            resolve state sub i Store fields
          | None -> (
            match Hashtbl.find_opt state.inflight dg with
            | Some waiters ->
              waiters := { w_sub = sub; w_index = i; w_tier = Coalesced } :: !waiters
            | None ->
              Hashtbl.replace state.inflight dg
                (ref [ { w_sub = sub; w_index = i; w_tier = Computed } ]);
              enqueue_job state { jb_digest = dg; jb_unit = u })))
      p.pl_units

let stats_json state =
  let c = state.counters in
  let manifest = Manifest.make (Machine.dual_cluster ()) in
  Metrics.snapshot ~manifest ~kind:"serve-stats"
    ~extra:
      [ ("requests", Json.Int c.c_requests);
        ("submits", Json.Int c.c_submits);
        ("units_requested", Json.Int c.c_units_requested);
        ("units_cached", Json.Int (c.c_units_memory + c.c_units_store));
        ("units_cached_memory", Json.Int c.c_units_memory);
        ("units_cached_store", Json.Int c.c_units_store);
        ("units_computed", Json.Int c.c_units_computed);
        ("units_coalesced", Json.Int c.c_units_coalesced);
        ("units_failed", Json.Int c.c_units_failed);
        ("connections", Json.Int c.c_connections);
        ("in_flight", Json.Int (Hashtbl.length state.inflight));
        ("clients", Json.Int (Hashtbl.length state.clients));
        ("memcache_units", Json.Int (Hashtbl.length state.memcache));
        ("sweep_plans", Json.Int (Hashtbl.length state.plans)) ]
    ()

let handle_frame state c j =
  state.counters.c_requests <- state.counters.c_requests + 1;
  match P.request_of_json j with
  | P.Submit { id; sweep } -> handle_submit state c ~id sweep
  | P.Stats id -> send state c (P.stats_response ~id ~metrics:(stats_json state))
  | P.Ping id -> send state c (P.pong_response ~id)
  | P.Stop id ->
    log state "stop requested";
    send state c (P.stopping_response ~id);
    state.stop_requested <- true
  | exception Failure msg ->
    let id =
      match Option.bind (Json.member "id" j) Json.get_int with Some n -> n | None -> 0
    in
    send state c (P.error_response ~id ~message:msg)

(* [buf] is the select loop's one read buffer: only that loop reads
   sockets, and a frame's bytes are copied out before the next read. *)
let handle_readable state ~buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> drop_client state c
  | n -> (
    P.push c.rd (Bytes.sub_string buf 0 n);
    try
      let rec drain () =
        match P.pop c.rd with
        | Some j ->
          handle_frame state c j;
          if c.alive then drain ()
        | None -> ()
      in
      drain ()
    with Failure msg ->
      (* Framing violation: the stream cannot be re-synchronised. *)
      log state "protocol error: %s" msg;
      drop_client state c)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop_client state c

(* ------------------------------------------------------------------ *)
(* Socket lifecycle and main loop                                      *)
(* ------------------------------------------------------------------ *)

(* The listening socket at [path]. A stale socket left by a crashed
   server (nobody accepts the probe) is replaced; a live one, or any
   other file, is refused and left alone. *)
let listen_on path =
  let fail e =
    failwith (Printf.sprintf "serve: cannot listen on %s: %s" path (Unix.error_message e))
  in
  let open_socket () =
    try Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with Unix.Unix_error (e, _, _) -> fail e
  in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  (match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> fail e
  | Unix.S_SOCK ->
    let probe = open_socket () in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    close probe;
    if live then failwith (Printf.sprintf "serve: a server is already listening on %s" path);
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> failwith (Printf.sprintf "serve: %s exists and is not a socket" path));
  let fd = open_socket () in
  try
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    fd
  with Unix.Unix_error (e, _, _) ->
    close fd;
    fail e

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Server.run: jobs < 1";
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = listen_on cfg.socket_path in
  let pipe_r, pipe_w = Unix.pipe () in
  let state =
    { cfg;
      store = Option.map (fun dir -> Mcsim.Result_store.open_ ~dir) cfg.result_cache;
      plans = Hashtbl.create 64;
      memcache = Hashtbl.create 64;
      inflight = Hashtbl.create 16;
      clients = Hashtbl.create 16;
      counters =
        { c_requests = 0; c_submits = 0; c_units_requested = 0; c_units_memory = 0;
          c_units_store = 0; c_units_computed = 0; c_units_coalesced = 0; c_units_failed = 0;
          c_connections = 0 };
      qm = Mutex.create ();
      qc = Condition.create ();
      jobs_q = Queue.create ();
      stopping = false;
      done_m = Mutex.create ();
      done_q = Queue.create ();
      pipe_w;
      stop_requested = false }
  in
  let workers = Array.init cfg.jobs (fun _ -> Domain.spawn (fun () -> worker state)) in
  log state "listening on %s (%d worker domain(s))" cfg.socket_path cfg.jobs;
  (match cfg.on_ready with Some f -> f () | None -> ());
  let drain_buf = Bytes.create 512 and read_buf = Bytes.create 65536 in
  while not state.stop_requested do
    let fds =
      listen_fd :: pipe_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) state.clients []
    in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            let cfd, _ = Unix.accept listen_fd in
            Unix.setsockopt_float cfd Unix.SO_SNDTIMEO 30.0;
            Hashtbl.replace state.clients cfd
              { fd = cfd; rd = P.reader (); alive = true };
            state.counters.c_connections <- state.counters.c_connections + 1;
            log state "client connected (%d now)" (Hashtbl.length state.clients)
          end
          else if fd = pipe_r then begin
            (try ignore (Unix.read pipe_r drain_buf 0 (Bytes.length drain_buf))
             with Unix.Unix_error _ -> ());
            let completed = ref [] in
            Mutex.lock state.done_m;
            while not (Queue.is_empty state.done_q) do
              completed := Queue.pop state.done_q :: !completed
            done;
            Mutex.unlock state.done_m;
            List.iter (process_done state) (List.rev !completed)
          end
          else
            match Hashtbl.find_opt state.clients fd with
            | Some c -> handle_readable state ~buf:read_buf c
            | None -> ())
        readable
  done;
  Mutex.lock state.qm;
  state.stopping <- true;
  Condition.broadcast state.qc;
  Mutex.unlock state.qm;
  Array.iter Domain.join workers;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) state.clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  log state "stopped"
