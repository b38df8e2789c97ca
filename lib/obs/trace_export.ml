module Machine = Mcsim_cluster.Machine
module Assignment = Mcsim_cluster.Assignment

type t = {
  num_clusters : int;
  period : int;
  mutable events : Machine.event list;  (* arrival order, reversed *)
  mutable samples : Machine.occupancy list;  (* reversed *)
}

let create ?(counter_period = 8) (cfg : Machine.config) =
  if counter_period < 1 then invalid_arg "Trace_export.create: counter_period < 1";
  { num_clusters = Assignment.num_clusters cfg.Machine.assignment;
    period = counter_period;
    events = [];
    samples = [] }

let observer t ev = t.events <- ev :: t.events

let sampler t st =
  if Machine.cycle st mod t.period = 0 then t.samples <- Machine.occupancy st :: t.samples

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Processes: pid 0 is the shared front end, pid [c + 1] is cluster [c].
   Threads within a process are pipeline stages. *)
let frontend_pid = 0
let cluster_pid c = c + 1
let tid_fetch = 0
let tid_retire = 1
let tid_replay = 2
let tid_dispatch = 0
let tid_issue = 1
let tid_writeback = 2
let tid_transfer = 3

let ev ?(args = []) ~name ~ph ~ts ~pid ~tid extra =
  Json.Obj
    ([ ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid) ]
    @ extra
    @ (if args = [] then [] else [ ("args", Json.Obj args) ]))

let instant ?args ~name ~ts ~pid ~tid () =
  ev ?args ~name ~ph:"i" ~ts ~pid ~tid [ ("s", Json.String "t") ]

let metadata ~name ~pid ~tid ~value =
  ev ~name ~ph:"M" ~ts:0 ~pid ~tid ~args:[ ("name", Json.String value) ] []

let counter ~name ~ts ~pid ~value =
  ev ~name ~ph:"C" ~ts ~pid ~tid:0 ~args:[ ("entries", Json.Int value) ] []

let role_str = Machine.role_to_string

(* One async ("b"/"e") slice per instruction copy, dispatch to last
   pipeline event. Keyed by (seq, role, cluster); a replayed instruction
   redispatches, and [Hashtbl.add]'s shadowing makes updates hit the
   newest incarnation while older rows stay recorded. *)
type row = { r_seq : int; r_role : Machine.role; r_cluster : int;
             r_start : int; mutable r_end : int }

let build_rows events =
  let rows : (int * Machine.role * int, row) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let touch seq role cluster cycle =
    match Hashtbl.find_opt rows (seq, role, cluster) with
    | Some r -> r.r_end <- max r.r_end cycle
    | None -> ()
  in
  List.iter
    (function
      | Machine.Ev_dispatch { cycle; seq; cluster; role; _ } ->
        let r = { r_seq = seq; r_role = role; r_cluster = cluster; r_start = cycle;
                  r_end = cycle }
        in
        Hashtbl.add rows (seq, role, cluster) r;
        order := r :: !order
      | Machine.Ev_issue { cycle; seq; cluster; role } -> touch seq role cluster cycle
      | Machine.Ev_writeback { cycle; seq; cluster; role } -> touch seq role cluster cycle
      | Machine.Ev_suspend { cycle; seq; cluster } ->
        touch seq Machine.Slave_copy cluster cycle
      | Machine.Ev_wakeup { cycle; seq; cluster } ->
        touch seq Machine.Slave_copy cluster cycle
      | Machine.Ev_operand_forward { cycle; seq; from_cluster; _ } ->
        touch seq Machine.Slave_copy from_cluster cycle
      | Machine.Ev_result_forward _ | Machine.Ev_fetch _ | Machine.Ev_retire _
      | Machine.Ev_replay _ -> ())
    events;
  List.rev !order

let event_json acc = function
  | Machine.Ev_fetch { cycle; seq } ->
    instant ~name:(Printf.sprintf "fetch #%d" seq)
      ~args:[ ("seq", Json.Int seq) ]
      ~ts:cycle ~pid:frontend_pid ~tid:tid_fetch ()
    :: acc
  | Machine.Ev_retire { cycle; seq } ->
    instant ~name:(Printf.sprintf "retire #%d" seq)
      ~args:[ ("seq", Json.Int seq) ]
      ~ts:cycle ~pid:frontend_pid ~tid:tid_retire ()
    :: acc
  | Machine.Ev_replay { cycle; seq } ->
    instant ~name:(Printf.sprintf "replay #%d" seq)
      ~args:[ ("seq", Json.Int seq) ]
      ~ts:cycle ~pid:frontend_pid ~tid:tid_replay ()
    :: acc
  | Machine.Ev_dispatch { cycle; seq; cluster; role; scenario } ->
    instant ~name:(Printf.sprintf "dispatch #%d" seq)
      ~args:[ ("seq", Json.Int seq); ("role", Json.String (role_str role));
              ("scenario", Json.Int scenario) ]
      ~ts:cycle ~pid:(cluster_pid cluster) ~tid:tid_dispatch ()
    :: acc
  | Machine.Ev_issue { cycle; seq; cluster; role } ->
    instant ~name:(Printf.sprintf "issue #%d" seq)
      ~args:[ ("seq", Json.Int seq); ("role", Json.String (role_str role)) ]
      ~ts:cycle ~pid:(cluster_pid cluster) ~tid:tid_issue ()
    :: acc
  | Machine.Ev_writeback { cycle; seq; cluster; role } ->
    instant ~name:(Printf.sprintf "writeback #%d" seq)
      ~args:[ ("seq", Json.Int seq); ("role", Json.String (role_str role)) ]
      ~ts:cycle ~pid:(cluster_pid cluster) ~tid:tid_writeback ()
    :: acc
  | Machine.Ev_suspend { cycle; seq; cluster } ->
    instant ~name:(Printf.sprintf "suspend #%d" seq)
      ~args:[ ("seq", Json.Int seq) ]
      ~ts:cycle ~pid:(cluster_pid cluster) ~tid:tid_transfer ()
    :: acc
  | Machine.Ev_wakeup { cycle; seq; cluster } ->
    instant ~name:(Printf.sprintf "wakeup #%d" seq)
      ~args:[ ("seq", Json.Int seq) ]
      ~ts:cycle ~pid:(cluster_pid cluster) ~tid:tid_transfer ()
    :: acc
  | Machine.Ev_operand_forward { cycle; seq; from_cluster; to_cluster } ->
    let slice pid name =
      ev ~name ~ph:"X" ~ts:cycle ~pid ~tid:tid_transfer
        ~args:[ ("seq", Json.Int seq) ]
        [ ("dur", Json.Int 1) ]
    in
    let flow ph pid extra =
      ev
        ~name:(Printf.sprintf "operand #%d" seq)
        ~ph ~ts:cycle ~pid ~tid:tid_transfer
        ([ ("cat", Json.String "flow"); ("id", Json.Int (2 * seq)) ] @ extra)
    in
    flow "f" (cluster_pid to_cluster) [ ("bp", Json.String "e") ]
    :: flow "s" (cluster_pid from_cluster) []
    :: slice (cluster_pid to_cluster)
         (Printf.sprintf "operand #%d from C%d" seq from_cluster)
    :: slice (cluster_pid from_cluster)
         (Printf.sprintf "operand #%d to C%d" seq to_cluster)
    :: acc
  | Machine.Ev_result_forward { cycle; seq; from_cluster; to_cluster } ->
    let slice pid name =
      ev ~name ~ph:"X" ~ts:cycle ~pid ~tid:tid_transfer
        ~args:[ ("seq", Json.Int seq) ]
        [ ("dur", Json.Int 1) ]
    in
    let flow ph pid extra =
      ev
        ~name:(Printf.sprintf "result #%d" seq)
        ~ph ~ts:cycle ~pid ~tid:tid_transfer
        ([ ("cat", Json.String "flow"); ("id", Json.Int ((2 * seq) + 1)) ] @ extra)
    in
    flow "f" (cluster_pid to_cluster) [ ("bp", Json.String "e") ]
    :: flow "s" (cluster_pid from_cluster) []
    :: slice (cluster_pid to_cluster)
         (Printf.sprintf "result #%d from C%d" seq from_cluster)
    :: slice (cluster_pid from_cluster)
         (Printf.sprintf "result #%d to C%d" seq to_cluster)
    :: acc

let row_json acc (r : row) =
  let common ph ts =
    ev
      ~name:(Printf.sprintf "#%d %s" r.r_seq (role_str r.r_role))
      ~ph ~ts ~pid:(cluster_pid r.r_cluster) ~tid:tid_dispatch
      [ ("cat", Json.String "copy"); ("id", Json.Int r.r_seq) ]
  in
  common "e" (max r.r_end (r.r_start + 1)) :: common "b" r.r_start :: acc

let sample_json acc (oc : Machine.occupancy) =
  let ts = oc.Machine.oc_cycle in
  let per_cluster name values acc =
    fst
      (Array.fold_left
         (fun (acc, c) v -> (counter ~name ~ts ~pid:(cluster_pid c) ~value:v :: acc, c + 1))
         (acc, 0) values)
  in
  counter ~name:"ROB" ~ts ~pid:frontend_pid ~value:oc.Machine.oc_rob
  :: per_cluster "dispatch_queue" oc.Machine.oc_dispatch_queues
       (per_cluster "operand_buffer" oc.Machine.oc_operand_buffers
          (per_cluster "result_buffer" oc.Machine.oc_result_buffers acc))

let metadata_events t =
  let frontend =
    [ metadata ~name:"process_name" ~pid:frontend_pid ~tid:0 ~value:"frontend";
      metadata ~name:"thread_name" ~pid:frontend_pid ~tid:tid_fetch ~value:"fetch";
      metadata ~name:"thread_name" ~pid:frontend_pid ~tid:tid_retire ~value:"retire";
      metadata ~name:"thread_name" ~pid:frontend_pid ~tid:tid_replay ~value:"replay" ]
  in
  let clusters =
    List.concat
      (List.init t.num_clusters (fun c ->
           let pid = cluster_pid c in
           [ metadata ~name:"process_name" ~pid ~tid:0
               ~value:(Printf.sprintf "cluster %d" c);
             metadata ~name:"thread_name" ~pid ~tid:tid_dispatch ~value:"dispatch";
             metadata ~name:"thread_name" ~pid ~tid:tid_issue ~value:"issue";
             metadata ~name:"thread_name" ~pid ~tid:tid_writeback ~value:"writeback";
             metadata ~name:"thread_name" ~pid ~tid:tid_transfer ~value:"transfer" ]))
  in
  frontend @ clusters

let ts_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "ts" fields with Some (Json.Int ts) -> ts | _ -> 0)
  | _ -> 0

let to_json ?manifest t =
  let events = List.rev t.events in
  let body = List.fold_left event_json [] events in
  let body = List.fold_left row_json body (build_rows events) in
  let body = List.fold_left sample_json body (List.rev t.samples) in
  let body = List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) (List.rev body) in
  let other =
    ("clock", Json.String "1 cycle = 1 us")
    ::
    (match manifest with
    | Some m -> [ ("schema_version", Json.Int Manifest.schema_version);
                  ("manifest", Manifest.to_json m) ]
    | None -> [ ("schema_version", Json.Int Manifest.schema_version) ])
  in
  Json.Obj
    [ ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj other);
      ("traceEvents", Json.List (metadata_events t @ body)) ]

(* Minified: indentation would be nearly half of a trace file. *)
let to_string ?manifest t = Json.to_string ~minify:true (to_json ?manifest t)
let write_file ?manifest path t = Json.write_file ~minify:true path (to_json ?manifest t) "\n"
