(* Tests for the observability layer (lib/obs): the JSON module's
   round-trip guarantee, the manifest/metrics schema, the Chrome-trace
   export checked cycle-for-cycle against the ASCII timeline, the
   machine's occupancy sampling hook, and the CLI error formatting. *)

module Machine = Mcsim_cluster.Machine
module Spec92 = Mcsim_workload.Spec92
module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Trace_export = Mcsim_obs.Trace_export

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let json : Json.t Alcotest.testable =
  Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) ( = )

let parse_ok s =
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail ("parse: " ^ e)

(* ------------------------------- json ------------------------------ *)

let sample_tree =
  Json.Obj
    [ ("null", Json.Null);
      ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
      ("ints", Json.List [ Json.Int 0; Json.Int (-17); Json.Int 123456789 ]);
      ("floats", Json.List [ Json.Float 1.5; Json.Float (-0.001); Json.Float 2.0 ]);
      ("strings",
       Json.List
         [ Json.String ""; Json.String "plain"; Json.String "quote \" backslash \\";
           Json.String "newline\ntab\tcr\r"; Json.String "caf\xc3\xa9" ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("nested", Json.Obj [ ("a", Json.Obj [ ("b", Json.List [ Json.Int 1 ]) ]) ]) ]

let json_roundtrip () =
  check json "pretty round-trips" sample_tree (parse_ok (Json.to_string sample_tree));
  check json "minified round-trips" sample_tree
    (parse_ok (Json.to_string ~minify:true sample_tree));
  (* The Int/Float distinction survives: integral floats print with ".0". *)
  check json "float 2.0 stays a float" (Json.Float 2.0) (parse_ok "2.0");
  check json "int 2 stays an int" (Json.Int 2) (parse_ok "2")

(* Each node of a tree, children first, replaced by its encoded leaf
   where a coin from [st] says so. *)
let rec encode_some st v =
  let v =
    match v with
    | Json.List l -> Json.List (List.map (encode_some st) l)
    | Json.Obj fields -> Json.Obj (List.map (fun (k, x) -> (k, encode_some st x)) fields)
    | leaf -> leaf
  in
  if Random.State.bool st then Json.encode v else v

let qcheck_encoded_leaves =
  Kit.qcheck
    (QCheck.Test.make ~count:300
       ~name:"json: encoded leaves keep the minified text and parse back to the tree"
       (QCheck.make
          ~print:(fun (plain, mixed) ->
            Json.to_string ~minify:true plain ^ " / " ^ Json.to_string mixed)
          QCheck.Gen.(Kit.json >>= fun plain st -> (plain, encode_some st plain)))
       (fun (plain, mixed) ->
         let text = Json.to_string ~minify:true plain in
         Json.to_string ~minify:true mixed = text
         && Json.of_string text = Ok plain
         && Json.of_string (Json.to_string mixed) = Ok plain))

let json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
    | Error _ -> ()
  in
  List.iter fails [ "{"; "[1,]"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "" ]

(* The parser is fed bytes straight off the serve socket, so hostile
   input must come back as a one-line [Error], never a stack overflow
   or a multi-line dump. *)
let json_hostile_input () =
  let one_line_error what s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (what ^ ": parsed")
    | Error e ->
      check Alcotest.bool (what ^ " error is one line") false (String.contains e '\n');
      e
  in
  (* Just inside the depth bound parses... *)
  let nest n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Json.of_string (nest Json.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("depth " ^ string_of_int Json.max_depth ^ ": " ^ e));
  (* ...one past it is a one-line refusal naming the bound, and far past
     it (deeper than the OCaml stack would survive) is the same error. *)
  let e = one_line_error "too deep" (nest (Json.max_depth + 1)) in
  let contains_sub ~sub s =
    try
      ignore (Str.search_forward (Str.regexp_string sub) s 0);
      true
    with Not_found -> false
  in
  check Alcotest.bool "depth error names the bound" true
    (contains_sub ~sub:(string_of_int Json.max_depth) e);
  ignore (one_line_error "way too deep" (String.make 200_000 '['));
  ignore (one_line_error "deep objects too" (String.concat "" (List.init 1000 (fun _ -> "{\"a\":") )));
  (* Truncated and trailing-garbage frames. *)
  ignore (one_line_error "truncated object" "{\"a\": [1, 2");
  ignore (one_line_error "truncated string" "\"abc");
  ignore (one_line_error "trailing garbage" "{\"a\": 1} xyz");
  ignore (one_line_error "two values" "[1] [2]")

let json_unicode_escape () =
  check json "\\u escape decodes to UTF-8" (Json.String "caf\xc3\xa9")
    (parse_ok "\"caf\\u00e9\"")

let json_queries () =
  let j = parse_ok "{\"a\": {\"b\": [1, \"x\"]}}" in
  check (Alcotest.option json) "path" (Some (Json.Int 1))
    (Option.bind (Json.path [ "a"; "b" ] j) (fun l -> List.nth_opt (Json.to_list l) 0));
  check (Alcotest.option json) "missing member" None (Json.member "zzz" j);
  check (Alcotest.option Alcotest.int) "get_int" (Some 1)
    (Option.bind (Json.path [ "a"; "b" ] j) (fun l ->
         Option.bind (List.nth_opt (Json.to_list l) 0) Json.get_int))

(* ----------------------------- fixtures ---------------------------- *)

let small_trace =
  lazy
    (let prog = Spec92.program Spec92.Compress in
     let profile = Mcsim_trace.Walker.profile ~seed:1 prog in
     let c =
       Mcsim_compiler.Pipeline.compile ~profile
         ~scheduler:Mcsim_compiler.Pipeline.default_local prog
     in
     Mcsim_trace.Walker.trace_flat ~seed:1 ~max_instrs:800 c.Mcsim_compiler.Pipeline.mach)

(* ----------------------- manifest and metrics ---------------------- *)

let manifest_schema () =
  let cfg = Machine.dual_cluster () in
  let m = Manifest.make ~engine:`Scan ~seed:7 ~benchmark:"compress" cfg in
  let j = Manifest.to_json m in
  List.iter
    (fun k ->
      check Alcotest.bool (k ^ " present") true (Json.member k j <> None))
    Manifest.required_keys;
  (* The digest depends only on the configuration. *)
  let m2 = Manifest.make ~engine:`Wakeup ~seed:99 cfg in
  check Alcotest.string "same config, same digest" m.Manifest.config_digest
    m2.Manifest.config_digest;
  let m3 = Manifest.make (Machine.single_cluster ()) in
  check Alcotest.bool "different config, different digest" true
    (m.Manifest.config_digest <> m3.Manifest.config_digest)

let metrics_roundtrip_and_engine_identity () =
  let trace = Lazy.force small_trace in
  let cfg = Machine.dual_cluster () in
  let snap engine =
    let r = Machine.run_flat ~engine cfg trace in
    Metrics.snapshot
      ~manifest:(Manifest.make ~engine ~benchmark:"compress" cfg)
      ~kind:"run" ~result:r ~gc:false ()
  in
  let scan = snap `Scan and wakeup = snap `Wakeup in
  List.iter
    (fun k -> check Alcotest.bool (k ^ " present") true (Json.member k scan <> None))
    Metrics.required_keys;
  check json "snapshot round-trips" scan (parse_ok (Json.to_string scan));
  (* The two engines must produce the identical result subtree; only the
     manifest's engine field may differ. *)
  check (Alcotest.option json) "scan vs wakeup result identical"
    (Json.path [ "data"; "result" ] scan)
    (Json.path [ "data"; "result" ] wakeup);
  check Alcotest.bool "result subtree is non-null" true
    (Json.path [ "data"; "result" ] scan <> Some Json.Null)

(* --------------------------- occupancy ----------------------------- *)

let occupancy_sampling () =
  let trace = Lazy.force small_trace in
  let cfg = Machine.dual_cluster () in
  let samples = ref [] in
  let r =
    Machine.run_flat ~on_occupancy:(fun oc -> samples := oc :: !samples) ~occupancy_period:4
      cfg trace
  in
  let samples = List.rev !samples in
  check Alcotest.bool "samples were taken" true (List.length samples > 10);
  List.iter
    (fun (oc : Machine.occupancy) ->
      check Alcotest.int "cycle on the period grid" 0 (oc.Machine.oc_cycle mod 4);
      check Alcotest.int "one dq entry per cluster" 2
        (Array.length oc.Machine.oc_dispatch_queues);
      check Alcotest.int "one operand buffer per cluster" 2
        (Array.length oc.Machine.oc_operand_buffers);
      check Alcotest.int "one result buffer per cluster" 2
        (Array.length oc.Machine.oc_result_buffers);
      check Alcotest.bool "all gauges non-negative" true
        (oc.Machine.oc_rob >= 0
        && Array.for_all (fun v -> v >= 0) oc.Machine.oc_dispatch_queues
        && Array.for_all (fun v -> v >= 0) oc.Machine.oc_operand_buffers
        && Array.for_all (fun v -> v >= 0) oc.Machine.oc_result_buffers))
    samples;
  check Alcotest.bool "some sample sees a busy machine" true
    (List.exists (fun oc -> oc.Machine.oc_rob > 0) samples);
  (* The sink must not perturb the simulation. *)
  let r2 = Machine.run_flat cfg trace in
  check Alcotest.int "same cycles with and without sink" r2.Machine.cycles
    r.Machine.cycles

let occupancy_period_validated () =
  let trace = Lazy.force small_trace in
  let cfg = Machine.dual_cluster () in
  Alcotest.check_raises "period 0 rejected"
    (Invalid_argument "Machine: occupancy_period < 1")
    (fun () ->
      ignore (Machine.run_flat ~on_occupancy:(fun _ -> ()) ~occupancy_period:0 cfg trace));
  (match Machine.run_flat ~occupancy_period:0 cfg trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "period 0 accepted without a sink");
  match Trace_export.create ~counter_period:0 cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Trace_export.create accepted counter_period 0"

(* -------------------------- trace export --------------------------- *)

(* Parse one rendered timeline row: a 15-char label ("#seq", optional
   role and cluster), one space of padding, then the cell columns. *)
type tl_row = { tl_seq : int; tl_role : string option; tl_cluster : int option;
                tl_cells : (int * char) list (* (cycle, symbol) *) }

let parse_timeline rendered =
  match String.split_on_char '\n' rendered with
  | header :: rest ->
    let t0 = Scanf.sscanf header "cycles %d..%d" (fun a _ -> a) in
    let parse_row line =
      if line = "" then None
      else begin
        let label = String.sub line 0 17 in
        let cells = String.sub line 17 (String.length line - 17) in
        let seq, role, cluster =
          Scanf.sscanf label "#%d %s %s" (fun seq role cl ->
              ( seq,
                (if role = "" then None else Some role),
                if String.length cl >= 2 && cl.[0] = 'C' then
                  int_of_string_opt (String.sub cl 1 (String.length cl - 1))
                else None ))
        in
        let marks = ref [] in
        String.iteri
          (fun i c -> if c <> '.' && c <> ' ' then marks := (t0 + i, c) :: !marks)
          cells;
        Some { tl_seq = seq; tl_role = role; tl_cluster = cluster;
               tl_cells = List.rev !marks }
      end
    in
    List.filter_map parse_row rest
  | [] -> Alcotest.fail "empty timeline"

let golden_trace () =
  let trace = Lazy.force small_trace in
  let cfg = Machine.dual_cluster () in
  let tx = Trace_export.create ~counter_period:4 cfg in
  let tl = Mcsim.Timeline.create () in
  let forwards = ref 0 in
  let on_event e =
    Trace_export.observer tx e;
    Mcsim.Timeline.observer tl e;
    match e with
    | Machine.Ev_operand_forward _ | Machine.Ev_result_forward _ -> incr forwards
    | _ -> ()
  in
  let r =
    Machine.run_flat ~on_event ~on_occupancy:(Trace_export.occupancy_observer tx)
      ~occupancy_period:4 cfg trace
  in
  (* The cycle-for-cycle comparison below relies on D/I/R marks never
     being overwritten in the ASCII rendering, which holds when nothing
     replays; the workload is chosen to guarantee that. *)
  check Alcotest.int "no replays" 0 r.Machine.replays;
  check Alcotest.bool "cross-cluster traffic present" true (!forwards > 0);
  let manifest = Manifest.make ~benchmark:"compress" cfg in
  let j = parse_ok (Trace_export.to_string ~manifest tx) in
  (* Schema: traceEvents plus the embedded manifest. *)
  List.iter
    (fun k ->
      check Alcotest.bool ("manifest " ^ k) true
        (Option.bind (Json.path [ "otherData"; "manifest" ] j) (Json.member k) <> None))
    Manifest.required_keys;
  let evs =
    match Json.member "traceEvents" j with
    | Some l -> Json.to_list l
    | None -> Alcotest.fail "no traceEvents"
  in
  check Alcotest.bool "trace is non-trivial" true (List.length evs > 1000);
  let str_field k e = Option.bind (Json.member k e) Json.get_string in
  let int_field k e = Option.bind (Json.member k e) Json.get_int in
  let arg k e = Option.bind (Json.member "args" e) (Json.member k) in
  let ph e = Option.value ~default:"" (str_field "ph" e) in
  let name e = Option.value ~default:"" (str_field "name" e) in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  (* Index the instant pipeline events as (seq, cycle[, role, cluster]). *)
  let instants kind =
    List.filter_map
      (fun e ->
        if ph e = "i" && starts_with (kind ^ " #") (name e) then
          Some
            ( Option.get (Option.bind (arg "seq" e) Json.get_int),
              Option.get (int_field "ts" e),
              Option.bind (arg "role" e) Json.get_string,
              (* pid 0 is the front end, pid c+1 is cluster c. *)
              (match int_field "pid" e with
              | Some pid when pid > 0 -> Some (pid - 1)
              | Some _ | None -> None) )
        else None)
      evs
  in
  let dispatches = instants "dispatch" and issues = instants "issue" in
  let retires = instants "retire" in
  check Alcotest.int "one retire instant per retired instruction" r.Machine.retired
    (List.length retires);
  (* Every mark the ASCII timeline draws must appear in the JSON at the
     same cycle — and vice versa for retires (R marks can't collide). *)
  let rows = parse_timeline (Mcsim.Timeline.render ~max_width:1_000_000 tl) in
  let has l (seq, cycle, role, cluster) =
    List.exists
      (fun (s, t, ro, cl) -> s = seq && t = cycle && ro = role && cl = cluster)
      l
  in
  let r_marks = ref 0 in
  List.iter
    (fun row ->
      List.iter
        (fun (cycle, sym) ->
          let ev = (row.tl_seq, cycle, row.tl_role, row.tl_cluster) in
          match sym with
          | 'D' ->
            check Alcotest.bool
              (Printf.sprintf "dispatch #%d @%d in trace" row.tl_seq cycle)
              true (has dispatches ev)
          | 'I' ->
            check Alcotest.bool
              (Printf.sprintf "issue #%d @%d in trace" row.tl_seq cycle)
              true (has issues ev)
          | 'R' ->
            incr r_marks;
            check Alcotest.bool
              (Printf.sprintf "retire #%d @%d in trace" row.tl_seq cycle)
              true (has retires (row.tl_seq, cycle, None, None))
          | _ -> ())
        row.tl_cells)
    rows;
  check Alcotest.int "every retire drawn" r.Machine.retired !r_marks;
  (* Flow events pair up one start and one finish per forward. *)
  let count p = List.length (List.filter p evs) in
  check Alcotest.int "one flow start per forward" !forwards
    (count (fun e -> ph e = "s"));
  check Alcotest.int "one flow finish per forward" !forwards
    (count (fun e -> ph e = "f"));
  (* Counter tracks exist for the ROB and every per-cluster gauge, on the
     requested period grid. *)
  List.iter
    (fun track ->
      check Alcotest.bool (track ^ " counter track") true
        (List.exists (fun e -> ph e = "C" && name e = track) evs))
    [ "ROB"; "dispatch_queue"; "operand_buffer"; "result_buffer" ];
  List.iter
    (fun e ->
      if ph e = "C" then
        check Alcotest.int "counter on the period grid" 0
          (Option.get (int_field "ts" e) mod 4))
    evs;
  (* Events arrive sorted by timestamp (writeback/result-forward events
     are emitted ahead of time, so this is a property of the export, not
     of the event stream). *)
  let _ =
    List.fold_left
      (fun prev e ->
        let ts = Option.value ~default:0 (int_field "ts" e) in
        check Alcotest.bool "sorted by ts" true (ts >= prev);
        ts)
      0 evs
  in
  ()

(* -------------------------- timeline edges ------------------------- *)

let timeline_edge_cases () =
  let tl = Mcsim.Timeline.create () in
  check Alcotest.string "no events" "(no events)\n" (Mcsim.Timeline.render tl);
  Alcotest.check_raises "max_width 0 rejected"
    (Invalid_argument "Timeline.render: max_width = 0 (must be > 0)")
    (fun () -> ignore (Mcsim.Timeline.render ~max_width:0 tl));
  (match Mcsim.Timeline.render ~max_width:(-3) tl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_width accepted")

(* --------------------------- cli errors ---------------------------- *)

let cli_error_formatting () =
  let trace = Lazy.force small_trace in
  let cfg = Machine.dual_cluster () in
  (* The machine's cycle-limit guard raises Failure; the CLI must turn it
     into a single "mcsim: error:" line instead of a backtrace. *)
  (match Mcsim.Cli_errors.handle (fun () -> Machine.run_flat ~max_cycles:1 cfg trace) with
  | Ok _ -> Alcotest.fail "cycle limit did not trip"
  | Error line ->
    let starts_with p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    check Alcotest.bool "mcsim: error: prefix" true (starts_with "mcsim: error: " line);
    check Alcotest.bool "names the cycle limit" true
      (try ignore (Str.search_forward (Str.regexp_string "cycle limit") line 0); true
       with Not_found -> false);
    check Alcotest.bool "single line" true (not (String.contains line '\n')));
  (match Mcsim.Cli_errors.handle (fun () -> invalid_arg "bad knob") with
  | Error "mcsim: error: bad knob" -> ()
  | Ok _ | Error _ -> Alcotest.fail "Invalid_argument not formatted");
  (* A bad --clusters value surfaces the model's own message, one line. *)
  (match
     Mcsim.Cli_errors.handle (fun () -> Machine.config_for_clusters 3)
   with
  | Error "mcsim: error: Machine.config_for_clusters: 3 (want 1, 2, 4 or 8)" -> ()
  | Ok _ -> Alcotest.fail "3 clusters accepted"
  | Error other -> Alcotest.failf "unexpected clusters error: %s" other);
  (match
     Mcsim.Cli_errors.handle (fun () -> Machine.config_for_clusters ~width:4 4)
   with
  | Error "mcsim: error: Machine.config_for_clusters: 4 clusters at width 4 (want 1 or 2)" ->
    ()
  | Ok _ -> Alcotest.fail "4 clusters at width 4 accepted"
  | Error other -> Alcotest.failf "unexpected width error: %s" other);
  check Alcotest.int "ok passes through" 3 (Result.get_ok (Mcsim.Cli_errors.handle (fun () -> 3)));
  (* Unexpected exceptions still escape. *)
  match Mcsim.Cli_errors.handle (fun () -> raise Exit) with
  | exception Exit -> ()
  | Ok _ | Error _ -> Alcotest.fail "Exit was swallowed"

let suite =
  ( "obs",
    [ case "json round-trip" json_roundtrip;
      qcheck_encoded_leaves;
      case "json parse errors" json_parse_errors;
      case "json hostile input" json_hostile_input;
      case "json unicode escape" json_unicode_escape;
      case "json queries" json_queries;
      case "manifest schema" manifest_schema;
      case "metrics round-trip + engine identity" metrics_roundtrip_and_engine_identity;
      case "occupancy sampling" occupancy_sampling;
      case "occupancy period validated" occupancy_period_validated;
      case "golden trace vs timeline" golden_trace;
      case "timeline edge cases" timeline_edge_cases;
      case "cli error formatting" cli_error_formatting ] )
