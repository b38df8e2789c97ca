(* serve-cached: the `mcsim serve` daemon, in its own process with one
   worker, answering a skewed stream of repeat submits from its caches.
   Set-up computes the population into a fresh result store (the write
   path) and restarts the daemon, so the timed stream's first touches
   read the disk store, its repeats hit memory, and it computes
   nothing. *)

open Common
module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Sampling = Mcsim_sampling.Sampling
module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics
module Manifest = Mcsim_obs.Manifest
module Result_store = Mcsim.Result_store
module P = Mcsim_serve.Protocol
module Client = Mcsim_serve.Client
module Rng = Mcsim_util.Rng

(* Submits kept outstanding on the one connection. One outstanding
   submit leaves the daemon idle between round trips, so throughput
   followed scheduling noise; eight keep it busy. *)
let window = 8

(* ------------------------------------------------------------------ *)
(* The population: table2, run and sample sweeps over varied           *)
(* benchmarks and machine configs, small enough to compute in set-up   *)
(* ------------------------------------------------------------------ *)

let p2p = Mcsim_cluster.Interconnect.Point_to_point
let static = Mcsim_cluster.Steering.Static
let small_policy = { Sampling.interval = 4_000; warmup = 400; detail = 400; seed = 1 }

let population =
  let benches = Array.of_list Spec92.all in
  let nb = Array.length benches in
  let table2 =
    List.init nb (fun i ->
        P.Table2
          { benchmarks = [ benches.(i); benches.((i + 1) mod nb) ];
            max_instrs = 6_000;
            seed = 1 + (i mod 2);
            engine = `Wakeup;
            sampling = None;
            four_way = false;
            clusters = None;
            topology = p2p;
            steering = static })
  in
  let runs =
    List.concat_map
      (fun b ->
        List.map
          (fun (machine, scheduler, clusters, topology, steering) ->
            P.Run
              { bench = b; machine; scheduler; max_instrs = 8_000; seed = 1; engine = `Wakeup;
                clusters; topology; steering })
          [ (`Dual, Pipeline.default_local, None, p2p, static);
            (`Single, Pipeline.Sched_none, None, p2p, static);
            (`Dual, Pipeline.Sched_none, Some 4, Mcsim_cluster.Interconnect.Ring,
             Mcsim_cluster.Steering.Dependence) ])
      Spec92.all
  in
  let samples =
    List.map
      (fun b ->
        P.Sample
          { bench = b; machine = `Dual; scheduler = Pipeline.default_local; max_instrs = 16_000;
            seed = 1; engine = `Wakeup; policy = small_policy; clusters = None; topology = p2p;
            steering = static })
      Spec92.all
  in
  Array.of_list (table2 @ runs @ samples)

(* The machine a run or sample sweep simulates, as the daemon builds it. *)
let config_of ~machine ~clusters ~topology ~steering =
  let base =
    match clusters with
    | Some n -> Machine.config_for_clusters ~topology n
    | None ->
      let b =
        match machine with `Single -> Machine.single_cluster () | `Dual -> Machine.dual_cluster ()
      in
      { b with Machine.topology }
  in
  { base with Machine.steering }

(* The result-store identities the daemon files each unit under, derived
   the way the daemon derives them. *)
let identities = function
  | P.Table2 { benchmarks; max_instrs; seed; engine; sampling; topology; steering; _ } ->
    let dual_config = { (Machine.dual_cluster ()) with Machine.topology; steering } in
    List.map
      (Mcsim.Table2.row_store_unit ~engine ?sampling ~dual_config ~max_instrs ~seed)
      benchmarks
  | P.Run { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }
    ->
    let cfg = config_of ~machine ~clusters ~topology ~steering in
    [ ( Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
          ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs cfg,
        "run" ) ]
  | P.Sample
      { bench; machine; scheduler; max_instrs; seed; engine; policy; clusters; topology;
        steering } ->
    let cfg = config_of ~machine ~clusters ~topology ~steering in
    [ ( Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
          ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs
          ~sampling:policy cfg,
        "sample" ) ]

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

(* Daemons not yet stopped; killed and reaped if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn_daemon ~mcsim ~socket ~store ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = [| mcsim; "serve"; socket; "-j"; "1"; "--result-cache"; store |] in
  let prog, argv =
    (* The daemon gets the CPU the load generator is not pinned to. *)
    if !pinned then ("taskset", Array.append [| "taskset"; "-c"; "0" |] argv)
    else (mcsim, argv)
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process prog argv Unix.stdin fd fd)
  in
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec wait_ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "the serve daemon exited during start-up");
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let up =
      try
        Unix.connect probe (Unix.ADDR_UNIX socket);
        true
      with Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if not up then begin
      if now () > deadline then failwith "the serve daemon did not start listening";
      Unix.sleepf 0.002;
      wait_ready ()
    end
  in
  wait_ready ();
  pid

(* Ask the daemon to stop and reap it: true when it exits 0 and removes
   its socket. *)
let stop_daemon ~socket pid =
  let c = Client.connect ~socket_path:socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stop_server c);
  let _, status = Unix.waitpid [] pid in
  live := List.filter (( <> ) pid) !live;
  status = Unix.WEXITED 0 && not (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* Compute the population into a fresh store, then restart the daemon
   on that store. Returns the running daemon, the store and every
   sweep's first answer. *)
let setup ~mcsim ~work k =
  let store = fresh_dir (Filename.concat work (Printf.sprintf "results-%d" k)) in
  let socket = Filename.concat work "serve.sock" and log = Filename.concat work "serve.log" in
  let pid = spawn_daemon ~mcsim ~socket ~store ~log in
  let c = Client.connect ~socket_path:socket in
  let answers =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Array.map
          (fun sweep ->
            let result, served = Client.submit c sweep in
            check
              (served.P.s_computed = served.P.s_units)
              "set-up computes every population unit into the fresh store";
            Json.to_string ~minify:true result)
          population)
  in
  check (stop_daemon ~socket pid) "the set-up daemon stops cleanly";
  (spawn_daemon ~mcsim ~socket ~store ~log, store, answers)

(* ------------------------------------------------------------------ *)
(* The submit stream                                                   *)
(* ------------------------------------------------------------------ *)

(* The load generator's side of one connection. It reads frames raw:
   every timed answer is compared byte for byte with the sweep's first
   answer, and only the small [served] object is parsed, which keeps the
   generator's own CPU use well below the daemon's. *)
type conn = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;  (** received bytes [lo, hi) not yet consumed *)
  mutable lo : int;
  mutable hi : int;
  mutable bytes : int;  (** sent and received *)
  mutable frames : int;  (** sent and received *)
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; data = Bytes.create 65536; lo = 0; hi = 0; bytes = 0; frames = 0 }

let send c id sweep =
  let frame =
    Span.with_ ~layer:"serve" ~name:"frame" ~item:"submit" (fun () ->
        P.frame_string (P.request_to_json (P.Submit { id; sweep })))
  in
  let n = String.length frame in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd frame !off (n - !off)
  done;
  c.bytes <- c.bytes + n;
  c.frames <- c.frames + 1

(* The next frame, as the offset and length of its payload in [c.data];
   valid until the next call. Payloads are read in place: copying each
   (several KiB, so straight into the major heap) made the generator's
   own collections stall the stream. *)
let rec next_frame c =
  let avail = c.hi - c.lo in
  let n = if avail >= 4 then Int32.to_int (Bytes.get_int32_be c.data c.lo) else -1 in
  if n > P.max_frame_bytes then failwith "the serve daemon sent an oversized frame";
  if n >= 0 && avail >= 4 + n then begin
    let off = c.lo + 4 in
    c.lo <- off + n;
    c.frames <- c.frames + 1;
    (off, n)
  end
  else begin
    Bytes.blit c.data c.lo c.data 0 avail;
    c.lo <- 0;
    c.hi <- avail;
    if n + 4 > Bytes.length c.data then begin
      let bigger = Bytes.create (2 * (n + 4)) in
      Bytes.blit c.data 0 bigger 0 avail;
      c.data <- bigger
    end;
    let k =
      Span.with_ ~layer:"serve" ~name:"wait" ~item:"response" (fun () ->
          Unix.read c.fd c.data c.hi (Bytes.length c.data - c.hi))
    in
    if k = 0 then failwith "the serve daemon closed the connection";
    c.hi <- c.hi + k;
    c.bytes <- c.bytes + k;
    next_frame c
  end

(* [pat] occurs in [b] at [i], within [b]'s first [limit] bytes. *)
let occurs_at b ~limit i pat =
  let m = String.length pat in
  i >= 0
  && i + m <= limit
  &&
  let rec go k = k = m || (Bytes.get b (i + k) = pat.[k] && go (k + 1)) in
  go 0

let rec find_from b ~limit i pat =
  if i + String.length pat > limit then -1
  else if occurs_at b ~limit i pat then i
  else find_from b ~limit (i + 1) pat

let rec rfind_from b ~limit i pat =
  if i < 0 || occurs_at b ~limit i pat then i else rfind_from b ~limit (i - 1) pat

(* A [done] frame is {"resp":"done","id":N,"kind":K,"result":R,"served":S}:
   its id, whether R equals [expected id] byte for byte, and S. *)
let done_prefix = "{\"resp\":\"done\",\"id\":"

let parse_done b off len ~expected =
  let limit = off + len in
  let p = off + String.length done_prefix in
  let comma = Bytes.index_from b p ',' in
  let id = int_of_string (Bytes.sub_string b p (comma - p)) in
  let r0 = find_from b ~limit comma "\"result\":" + 9 in
  let r1 = rfind_from b ~limit (limit - 1) ",\"served\":" in
  let served =
    if r1 < 0 then None
    else
      match Json.of_string (Bytes.sub_string b (r1 + 10) (limit - r1 - 11)) with
      | Ok j -> P.served_of_json j
      | Error _ -> None
  in
  let answer = expected id in
  let same = r0 >= 9 && r1 - r0 = String.length answer && occurs_at b ~limit r0 answer in
  (id, same, served)

(* Completion times and latencies of one stream, in unboxed arrays that
   double as they fill. *)
type samples = { mutable at : Float.Array.t; mutable lat : Float.Array.t; mutable n : int }

let add_sample smp ~at ~lat =
  if smp.n = Float.Array.length smp.at then begin
    let grow a =
      let b = Float.Array.make (2 * smp.n) 0.0 in
      Float.Array.blit a 0 b 0 smp.n;
      b
    in
    smp.at <- grow smp.at;
    smp.lat <- grow smp.lat
  end;
  Float.Array.set smp.at smp.n at;
  Float.Array.set smp.lat smp.n lat;
  smp.n <- smp.n + 1

type stream = {
  steal : float list;  (** host steal share per one-second window, in order *)
  samples : samples;
  latencies : float array;  (** seconds, one per completed submit, sorted *)
  elapsed : float;
  computed : int;  (** completed submits that computed a unit *)
  wrong : int;  (** answers that differ from the sweep's first answer *)
  errors : int;
  conn : conn;
}

(* A closed loop of [window] outstanding submits for [seconds], drawn
   from the population with a seeded Zipf skew inside each sweep kind:
   the k-th most popular sweep of its kind (a seeded permutation) has
   weight 1/k, and each kind carries a third of the traffic. Fixing the
   kind mix keeps the cost per submit independent of the seed; the seed
   moves which sweeps are hot. *)
let stream_weights rng =
  let n = Array.length population in
  let weights = Array.make n 0.0 in
  List.iter
    (fun kind ->
      let members =
        Array.of_list
          (List.filter (fun i -> P.sweep_kind population.(i) = kind) (List.init n Fun.id))
      in
      Rng.shuffle rng members;
      let total = ref 0.0 in
      Array.iteri (fun rank _ -> total := !total +. (1.0 /. float_of_int (rank + 1))) members;
      Array.iteri
        (fun rank i -> weights.(i) <- 1.0 /. float_of_int (rank + 1) /. !total)
        members)
    [ "table2"; "run"; "sample" ];
  weights

let run_stream ~socket ~seed ~seconds ~answers =
  let rng = Rng.create seed in
  let weights = stream_weights rng in
  let c = connect socket in
  let pending = Hashtbl.create (2 * window) in
  let smp = { at = Float.Array.make 65536 0.0; lat = Float.Array.make 65536 0.0; n = 0 } in
  let computed = ref 0 and wrong = ref 0 and errors = ref 0 in
  let next_id = ref 0 in
  let t0 = now () in
  let steal = ref [] and snap = ref (cpu_snapshot ()) and boundary = ref 1.0 in
  let submit () =
    let i = Rng.weighted_index rng weights in
    incr next_id;
    Hashtbl.replace pending !next_id (i, now ());
    send c !next_id population.(i)
  in
  for _ = 1 to window do
    submit ()
  done;
  let expected id = answers.(fst (Hashtbl.find pending id)) in
  let is prefix off len = occurs_at c.data ~limit:(off + len) off prefix in
  while Hashtbl.length pending > 0 do
    let off, len = next_frame c in
    if is done_prefix off len then begin
      let id, same, served =
        Span.with_ ~layer:"serve" ~name:"frame" ~item:"response" (fun () ->
            parse_done c.data off len ~expected)
      in
      let _, sent = Hashtbl.find pending id in
      Hashtbl.remove pending id;
      let t = now () in
      add_sample smp ~at:(t -. t0) ~lat:(t -. sent);
      if t -. t0 >= !boundary then begin
        steal := steal_share_since !snap :: !steal;
        snap := cpu_snapshot ();
        boundary := !boundary +. 1.0
      end;
      (match served with
      | Some s when s.P.s_computed = 0 && s.P.s_coalesced = 0 -> ()
      | _ -> incr computed);
      if not same then incr wrong;
      if t -. t0 < seconds then submit ()
    end
    else if is "{\"resp\":\"error\"" off len then begin
      (* One line naming the failure; the stream stops here. *)
      Printf.eprintf "serve-cached: %s\n%!" (Bytes.sub_string c.data off len);
      incr errors;
      Hashtbl.reset pending
    end
    else if not (is "{\"resp\":\"unit\"" off len) then
      failwith ("unexpected frame from the serve daemon: " ^ Bytes.sub_string c.data off len)
  done;
  (* The steal of the last window, which ends in the drain. *)
  steal := steal_share_since !snap :: !steal;
  let elapsed = now () -. t0 in
  Unix.close c.fd;
  let latencies = Array.init smp.n (Float.Array.get smp.lat) in
  Array.sort compare latencies;
  { steal = List.rev !steal; samples = smp; latencies; elapsed; computed = !computed;
    wrong = !wrong; errors = !errors; conn = c }

let per_s s = float_of_int (Array.length s.latencies) /. s.elapsed

(* The timed stream cut into one-second windows by completion time
   (the drain after the last submit is left out), each with the share of
   CPU time the host stole from the VM in it and its sorted latencies.
   Latency figures are medians over the half of the windows with the
   least steal: a stolen vCPU stalls every outstanding submit at once,
   and steal swung from under 1% to 30% between runs. *)
let quiet_windows s ~seconds =
  let k = max 1 (int_of_float seconds) in
  let width = seconds /. float_of_int k in
  let buckets = Array.make k [] in
  for j = 0 to s.samples.n - 1 do
    let w = int_of_float (Float.Array.get s.samples.at j /. width) in
    if w < k then buckets.(w) <- Float.Array.get s.samples.lat j :: buckets.(w)
  done;
  let steal = Array.of_list s.steal in
  let wins = List.init k (fun w -> (steal.(min w (Array.length steal - 1)), w, sorted buckets.(w))) in
  List.filteri (fun i _ -> i < max 1 (k / 2)) (List.sort compare wins)
  |> List.map (fun (st, _, lats) -> (st, lats))

(* ------------------------------------------------------------------ *)
(* Per-result costs of the obs and result-store layers                 *)
(* ------------------------------------------------------------------ *)

(* Typed round trip of one answer through the obs codecs: [decode]
   parses a sweep's answer into typed values, [encode] prints them back
   in the answer's shape. *)
let decode sweep s =
  let j = match Json.of_string s with Ok j -> j | Error e -> failwith e in
  let machine () = Option.get (Option.bind (Json.member "result" j) Metrics.result_of_json) in
  match sweep with
  | P.Table2 _ -> `Rows (Option.get (Client.rows_of_result j))
  | P.Run _ -> `Run (machine (), Option.get (Option.bind (Json.member "trace_instrs" j) Json.get_int))
  | P.Sample { seed; _ } ->
    let machine = machine () in
    `Sample
      (Option.get (Option.bind (Json.member "sampling" j) (Metrics.sampling_of_json ~seed ~machine)))

let encode typed =
  Json.to_string ~minify:true
    (match typed with
    | `Rows rows -> Json.Obj [ ("rows", Json.List (List.map Mcsim.Table2.row_json rows)) ]
    | `Run (r, n) -> Json.Obj [ ("result", Metrics.result_json r); ("trace_instrs", Json.Int n) ]
    | `Sample s ->
      Json.Obj
        [ ("sampling", Metrics.sampling_json s); ("result", Metrics.result_json s.Sampling.machine) ])

(* The population's answers for the per-result pass, each unit with the
   fields the daemon recorded under its identity in [store]. *)
let population_results ~store ~answers =
  let rstore = Result_store.open_ ~dir:store in
  Array.to_list
    (Array.mapi
       (fun i sweep ->
         let units =
           List.filter_map
             (fun (manifest, key) ->
               match Result_store.find rstore ~manifest ~key with
               | Some (Json.Obj fields) ->
                 Some (manifest, key, List.filter (fun (k, _) -> k <> "unit_key") fields)
               | _ ->
                 check false "every population unit is in the result store under the daemon's identity";
                 None)
             (identities sweep)
         in
         let typed = decode sweep answers.(i) in
         check (encode typed = answers.(i)) "the obs codecs reproduce every answer byte for byte";
         { Layers.sweep;
           encode = (fun () -> encode typed);
           decode = (fun s -> ignore (decode sweep s));
           units;
           answer = Result.get_ok (Json.of_string answers.(i)) })
       population)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~mcsim ~work ~seed ~seconds ~traced =
  let socket = Filename.concat work "serve.sock" in
  let rec setups k acc =
    (* CPU of this process, the reaped set-up daemon and the restarted
       daemon's start-up. *)
    let c0 = cpu_now () in
    let pid, store, answers = setup ~mcsim ~work k in
    let dt = cpu_now () -. c0 +. cpu_seconds pid in
    let acc = (store, answers, dt) :: acc in
    if k + 1 = setup_reps then (pid, List.rev acc)
    else begin
      check (stop_daemon ~socket pid) "a set-up daemon stops cleanly";
      rm_rf store;
      setups (k + 1) acc
    end
  in
  let pid, reps = setups 0 [] in
  let store, answers, _ = List.nth reps (setup_reps - 1) in
  List.iter
    (fun (_, a, _) -> check (a = answers) "every set-up computes the same answers")
    reps;
  let d0 = cpu_seconds pid and c0 = Unix.times () and h0 = cpu_snapshot () in
  let s = run_stream ~socket ~seed ~seconds ~answers in
  let d1 = cpu_seconds pid and c1 = Unix.times () in
  Printf.eprintf
    "serve-cached: stream %.2f s wall; daemon %.2f s CPU, load generator %.2f s CPU (%s); \
     host steal %.1f%%\n%!"
    s.elapsed (d1 -. d0)
    (c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime)
    (if !pinned then "pinned to CPUs 0 and 1" else "not pinned")
    (100.0 *. steal_share_since h0);
  let n = Array.length s.latencies in
  let daemon_cpu = d1 -. d0 in
  let windows = quiet_windows s ~seconds in
  let quiet = List.map snd windows in
  let fewest = List.fold_left (fun a l -> min a (Array.length l)) max_int quiet in
  check (s.computed = 0) "no timed submit computes a unit";
  check (s.wrong = 0) "every repeat answer is byte-identical to the sweep's first answer";
  check (s.errors = 0) "no submit fails";
  let attempted = n + s.errors in
  let failed = s.errors + s.wrong + s.computed in
  (* The reported latency leaves the host's stolen time out, as the CPU
     seconds of the other host metrics do: each window's median latency
     scaled by the share of CPU time the host did not steal in it. Over
     four sets of ten runs, with steal from 0% to 32%, the sets' median
     wall-clock p50 ranged from 1.18 to 1.70 ms; scaled by each run's
     unstolen share, from 1.15 to 1.21 ms. *)
  let p50 = median (List.map (fun (st, l) -> percentile 0.50 l *. (1.0 -. st)) windows) in
  Printf.eprintf "serve-cached: per-window host steal %%: %s\n%!"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (100.0 *. x)) s.steal));
  (* A p99 is given only where at least ten submits lie beyond it. *)
  let p99 samples v =
    if samples >= 1000 then Printf.sprintf "%.3f ms" v else "not given (under 1000 submits)"
  in
  Printf.eprintf
    "serve-cached: %d timed submits, %d outstanding, %.0f/s wall; latencies from the %d \
     windows with least steal, each of at least %d submits: p50 %.3f ms with steal left out, \
     wall-clock p50 %.3f ms, p99 %s; whole-stream p50 %.3f ms, p99 %s\n%!"
    n window (per_s s) (List.length quiet) fewest (1e3 *. p50)
    (1e3 *. median (List.map (percentile 0.50) quiet))
    (p99 fewest (1e3 *. median (List.map (percentile 0.99) quiet)))
    (1e3 *. percentile 0.50 s.latencies)
    (p99 n (1e3 *. percentile 0.99 s.latencies));
  let metrics =
    if not traced then
      end_to_end ~ops:n ~cpu:daemon_cpu ~op_p50:p50
        ~setups:(List.map (fun (_, _, dt) -> dt) reps)
        ~rss:(peak_rss_mib pid)
    else begin
      Span.enabled := true;
      Span.phase := "timed";
      let ts = run_stream ~socket ~seed ~seconds ~answers in
      check (ts.computed = 0 && ts.wrong = 0 && ts.errors = 0)
        "the traced stream reproduces the untraced answers";
      let stats =
        let c = Client.connect ~socket_path:socket in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c)
      in
      let stat k =
        float_of_int
          (Option.value ~default:0 (Option.bind (Json.path [ "data"; k ] stats) Json.get_int))
      in
      let tn = float_of_int (Array.length ts.latencies) in
      let m =
        Layers.metrics ~work
          { Layers.empty with
            wall = ts.elapsed;
            overhead = (per_s s /. per_s ts) -. 1.0;
            frames_per_submit = float_of_int ts.conn.frames /. tn;
            bytes_per_submit = float_of_int ts.conn.bytes /. tn;
            cached_ratio = ratio (stat "units_cached") (stat "units_requested");
            results = population_results ~store ~answers }
      in
      Span.enabled := false;
      m
    end
  in
  check (stop_daemon ~socket pid) "the timed daemon stops cleanly";
  { correct = !problems = []; attempted; failed; metrics }
