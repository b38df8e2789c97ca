(* Tests for the sweep service (lib/serve): protocol framing and
   codecs, the content-addressed result store (including its
   compatibility with checkpoint directories), the batch --result-cache
   path, and the daemon itself — end-to-end equivalence with in-process
   runs, full cache service on resubmit, coalescing of identical
   in-flight units across concurrent clients, and survival of a
   mid-sweep disconnect. *)

module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Sampling = Mcsim_sampling.Sampling
module Steering = Mcsim_cluster.Steering
module P = Mcsim_serve.Protocol
module Sweep = Mcsim_serve.Sweep
module Server = Mcsim_serve.Server
module Client = Mcsim_serve.Client

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let jstr j = Json.to_string ~minify:true j
let p2p = Mcsim_cluster.Interconnect.Point_to_point

let json : Json.t Alcotest.testable =
  Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (jstr j)) ( = )

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------ framing ---------------------------- *)

let frame_roundtrip () =
  let msgs =
    [ Json.Null;
      Json.Obj [ ("k", Json.List [ Json.Int 1; Json.String "x" ]) ];
      Json.String (String.make 10_000 'z') ]
  in
  let bytes = String.concat "" (List.map P.frame_string msgs) in
  (* Feed the concatenated frames one byte at a time: every frame must
     pop exactly once, in order, and the reader must end empty. *)
  let r = P.reader () in
  let popped = ref [] in
  String.iter
    (fun c ->
      P.push r (String.make 1 c);
      match P.pop r with Some j -> popped := j :: !popped | None -> ())
    bytes;
  check (Alcotest.list json) "framed messages round-trip" msgs (List.rev !popped);
  check Alcotest.int "reader empty between frames" 0 (P.buffered r)

let frame_hostile () =
  let one_line f =
    match f () with
    | _ -> Alcotest.fail "hostile frame accepted"
    | exception Failure e ->
      check Alcotest.bool "error is one line" false (String.contains e '\n')
  in
  (* Length prefix far beyond the 16 MiB bound. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 0x7fffffffl;
  one_line (fun () ->
      let r = P.reader () in
      P.push r (Bytes.to_string huge);
      P.pop r);
  (* A complete frame whose payload is not JSON. *)
  let bogus = "notjson!" in
  let b = Bytes.create (4 + String.length bogus) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length bogus));
  Bytes.blit_string bogus 0 b 4 (String.length bogus);
  one_line (fun () ->
      let r = P.reader () in
      P.push r (Bytes.to_string b);
      P.pop r);
  (* An over-limit outgoing payload is refused before hitting the wire. *)
  one_line (fun () -> P.frame_string (Json.String (String.make (17 * 1024 * 1024) 'x')))

(* ------------------------------ codecs ----------------------------- *)

let some_sweeps =
  [ P.Table2
      { benchmarks = Spec92.all; max_instrs = 5000; seed = 3; engine = `Wakeup;
        sampling = None; four_way = false; clusters = None; topology = p2p;
        steering = Steering.Static };
    P.Table2
      { benchmarks = [ List.hd Spec92.all ]; max_instrs = 9000; seed = 1; engine = `Scan;
        sampling = Some { Sampling.interval = 3000; warmup = 300; detail = 300; seed = 1 };
        four_way = true; clusters = Some 4; topology = Mcsim_cluster.Interconnect.Ring;
        steering = Steering.Load };
    P.Run
      { bench = List.hd Spec92.all; machine = `Single; scheduler = Pipeline.Sched_none;
        max_instrs = 2000; seed = 7; engine = `Wakeup; clusters = None; topology = p2p;
        steering = Steering.Static };
    P.Run
      { bench = List.nth Spec92.all 3; machine = `Dual;
        scheduler = Pipeline.Sched_round_robin; max_instrs = 2000; seed = 2;
        engine = `Scan; clusters = Some 8;
        topology = Mcsim_cluster.Interconnect.Crossbar;
        steering = Steering.Ineffectual };
    P.Sample
      { bench = List.nth Spec92.all 2; machine = `Dual; scheduler = Pipeline.default_local;
        max_instrs = 50_000; seed = 5; engine = `Wakeup;
        policy = { Sampling.interval = 5000; warmup = 500; detail = 500; seed = 5 };
        clusters = None; topology = p2p; steering = Steering.Dependence } ]

let sweep_codec_roundtrip () =
  List.iter
    (fun s ->
      check json "sweep round-trips" (P.sweep_to_json s)
        (P.sweep_to_json (P.sweep_of_json (P.sweep_to_json s))))
    some_sweeps;
  (* The wire form uses Pipeline.scheduler_name, which prints
     "round_robin"; the CLI spells it "round-robin" — both must parse. *)
  let run_with sched =
    Json.Obj
      [ ("kind", Json.String "run"); ("benchmark", Json.String "compress");
        ("machine", Json.String "dual"); ("scheduler", Json.String sched);
        ("max_instrs", Json.Int 1000); ("seed", Json.Int 1);
        ("engine", Json.String "wakeup") ]
  in
  List.iter
    (fun spelling ->
      match P.sweep_of_json (run_with spelling) with
      | P.Run { scheduler = Pipeline.Sched_round_robin; _ } -> ()
      | _ -> Alcotest.fail (spelling ^ " did not parse to round-robin"))
    [ "round_robin"; "round-robin" ];
  (* Frames from pre-interconnect / pre-steering peers omit the cluster
     fields entirely; absent must decode to the historical defaults. *)
  match P.sweep_of_json (run_with "round_robin") with
  | P.Run
      { clusters = None; topology = Mcsim_cluster.Interconnect.Point_to_point;
        steering = Steering.Static; _ } -> ()
  | _ -> Alcotest.fail "absent cluster fields did not default"

let sweep_codec_rejects () =
  let rejects j =
    match P.sweep_of_json j with
    | _ -> Alcotest.fail "malformed sweep accepted"
    | exception Failure e ->
      check Alcotest.bool "error is one line" false (String.contains e '\n')
  in
  rejects (Json.Obj [ ("kind", Json.String "nope") ]);
  rejects (Json.Obj [ ("kind", Json.String "table2"); ("benchmarks", Json.List []) ]);
  rejects
    (Json.Obj
       [ ("kind", Json.String "run"); ("benchmark", Json.String "no-such-benchmark") ]);
  let run_with_steering steering =
    Json.Obj
      [ ("kind", Json.String "run"); ("benchmark", Json.String "compress");
        ("machine", Json.String "dual"); ("scheduler", Json.String "none");
        ("max_instrs", Json.Int 1000); ("seed", Json.Int 1);
        ("engine", Json.String "wakeup"); ("steering", steering) ]
  in
  rejects (run_with_steering (Json.String "warp"));
  rejects (run_with_steering (Json.Int 3))

let request_codec_roundtrip () =
  let reqs =
    [ P.Submit { id = 42; sweep = List.hd some_sweeps }; P.Stats 1; P.Ping 7; P.Stop 3 ]
  in
  List.iter
    (fun r ->
      check json "request round-trips" (P.request_to_json r)
        (P.request_to_json (P.request_of_json (P.request_to_json r))))
    reqs

let qcheck_sweep_roundtrip =
  let gen =
    QCheck.Gen.(
      let bench = oneofl Spec92.all in
      let engine = oneofl [ `Scan; `Wakeup ] in
      let machine = oneofl [ `Single; `Dual ] in
      let scheduler =
        oneofl
          [ Pipeline.Sched_none; Pipeline.default_local; Pipeline.Sched_round_robin;
            Pipeline.Sched_random 7 ]
      in
      let clusters = oneofl [ None; Some 1; Some 2; Some 4; Some 8 ] in
      let topology = oneofl Mcsim_cluster.Interconnect.all in
      let steering = oneofl Steering.all in
      let policy seed =
        (* warmup + detail must fit in interval (validate_policy). *)
        map
          (fun (i, w, d) -> { Sampling.interval = i; warmup = w; detail = d; seed })
          (triple (int_range 5000 50_000) (int_range 0 2000) (int_range 1 2000))
      in
      int_range 1 1000 >>= fun seed ->
      oneof
        [ map
            (fun ((bs, n, e, fw), (cl, t, st)) ->
              P.Table2
                { benchmarks = (if bs = [] then Spec92.all else bs); max_instrs = n;
                  seed; engine = e; sampling = None;
                  four_way = (fw && cl = None); clusters = cl; topology = t;
                  steering = st })
            (pair
               (quad (list_size (int_range 0 6) bench) (int_range 1 1_000_000) engine bool)
               (triple clusters topology steering));
          map
            (fun (b, m, s, (n, e, (cl, t, st))) ->
              P.Run
                { bench = b; machine = m; scheduler = s; max_instrs = n; seed;
                  engine = e; clusters = cl; topology = t; steering = st })
            (quad bench machine scheduler
               (triple (int_range 1 1_000_000) engine (triple clusters topology steering)));
          map
            (fun (b, m, s, (n, e, p, (cl, t, st))) ->
              P.Sample
                { bench = b; machine = m; scheduler = s; max_instrs = n; seed;
                  engine = e; policy = p; clusters = cl; topology = t; steering = st })
            (quad bench machine scheduler
               (quad (int_range 1 1_000_000) engine (policy seed)
                  (triple clusters topology steering))) ])
  in
  Kit.qcheck
    (QCheck.Test.make ~count:200 ~name:"sweep json codec is a bijection on wire forms"
       (QCheck.make ~print:(fun s -> jstr (P.sweep_to_json s)) gen)
       (fun s ->
         jstr (P.sweep_to_json s) = jstr (P.sweep_to_json (P.sweep_of_json (P.sweep_to_json s)))))

(* ----------------------- run spec: one sweep ------------------------ *)

let table2 ?(benchmarks = Spec92.all) ?(max_instrs = 60_000) ?(seed = 1) ?(engine = `Wakeup)
    ?sampling ?(four_way = false) ?clusters ?(topology = p2p) ?(steering = Steering.Static) () =
  P.Table2
    { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology; steering }

let run ?(machine = `Dual) ?(scheduler = Pipeline.default_local) ?(max_instrs = 60_000)
    ?(seed = 1) ?(engine = `Wakeup) ?clusters ?(topology = p2p) ?(steering = Steering.Static)
    bench =
  P.Run { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }

let sample ?(machine = `Dual) ?(scheduler = Pipeline.default_local) ?(max_instrs = 60_000)
    ?(seed = 1) ?policy ?clusters ?(topology = p2p) ?(steering = Steering.Static) bench =
  let policy = Option.value policy ~default:{ Sampling.default_policy with seed } in
  P.Sample
    { bench; machine; scheduler; max_instrs; seed; engine = `Wakeup; policy; clusters; topology;
      steering }

let contains s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

let scheduler_names_parse_back () =
  List.iter
    (fun s ->
      let name = Pipeline.scheduler_name s in
      check Alcotest.bool (name ^ " parses back") true
        (Pipeline.scheduler_of_string name = Ok s))
    [ Pipeline.Sched_none; Pipeline.default_local; Pipeline.Sched_round_robin;
      Pipeline.Sched_random 7 ];
  List.iter
    (fun spelling ->
      check Alcotest.bool (spelling ^ " is round-robin") true
        (Pipeline.scheduler_of_string spelling = Ok Pipeline.Sched_round_robin))
    [ "round_robin"; "round-robin"; "rr" ];
  check Alcotest.bool "unknown names are refused by name" true
    (Pipeline.scheduler_of_string "fast" = Error "unknown scheduler \"fast\"")

(* Result-store digests of every unit of representative sweeps, as the
   batch CLI and the daemon both computed them before they shared one
   unit builder. A knob that reaches a config or a key differently would
   turn every existing cache, checkpoint and daemon store cold. *)
let pinned_identities =
  let open Spec92 in
  [ ( table2 (),
      [ "419245ea56c6b6b5be9b504a582fcc54"; "b33a4ae19f698621361ee23737bdb83c";
        "3270db658b5a278afd6a23f885d51ea2"; "395c16d670d438e242ed88a386e9017d";
        "f5ce9c448efcca2d0beedc0bfba26a9b"; "36d334906b61d9173a02a00701bdcd5f" ] );
    ( table2 ~four_way:true (),
      [ "0a4930cd944f2023708cb89a38c60073"; "ca48ffb57f0366a8abac1ecfe5a2dd72";
        "6996de806a45e8829248e72fd4d9662b"; "68740c5396109e293ba231d5229a7f23";
        "03b77b3f4b929526d822743328e55c44"; "bd70f47aafb872443b8836bc5e9a37d1" ] );
    ( table2
        ~sampling:{ Sampling.interval = 20_000; warmup = 2000; detail = 2000; seed = 1 } (),
      [ "604eeef852243827a8c7e55d85984675"; "d8456343010885bcdca24dc3c726324d";
        "e0549c62e07e9eee9cf922548c641867"; "21c168e2ef0bb8b9ca54973236ff5b17";
        "a4007a67b688b4fe394bc22822cc20ee"; "6e51bed709dc1aa02eb8ebdce884fb9c" ] );
    ( table2 ~max_instrs:20_000 ~seed:2 ~engine:`Scan ~clusters:8
        ~topology:Mcsim_cluster.Interconnect.Crossbar ~steering:Steering.Load (),
      [ "cd25370222f9995de85e84e091cc2a3f"; "6d2e8f37198b9baf3b2c50dfdbf533a8";
        "4c16aa68bfbab346aeeb7d7fcbb0a287"; "76a221f8590af4437ac47cf8b7b788cf";
        "562f41079418787d901341219e9f4f79"; "9d1998dadc6d83a3ea4059d7884ffb53" ] );
    ( run ~machine:`Single ~scheduler:Pipeline.Sched_none Compress,
      [ "0b9dfc7832439e878731775be808cc76" ] );
    ( run ~clusters:4 ~topology:Mcsim_cluster.Interconnect.Ring ~steering:Steering.Dependence
        Compress,
      [ "5b122aa0b440e08e05589715954e1b3d" ] );
    ( run ~scheduler:Pipeline.Sched_round_robin ~max_instrs:1234 ~seed:5
        ~topology:Mcsim_cluster.Interconnect.Crossbar ~steering:Steering.Modulo Ora,
      [ "4614063fdc2d9fdc8e09320f12fc3385" ] );
    (sample Compress, [ "cf19d5ba72179719d577f10e53379a8b" ]);
    ( sample ~machine:`Single ~scheduler:(Pipeline.Sched_random 7) ~max_instrs:50_000 ~seed:3
        ~policy:{ Sampling.interval = 5000; warmup = 500; detail = 500; seed = 3 } Su2cor,
      [ "3d3fd1413f84d1783c5c697778a732be" ] ) ]

let cache_identities_pinned () =
  List.iter
    (fun (sweep, want) ->
      let units, _ = Sweep.units sweep in
      check (Alcotest.list Alcotest.string)
        (jstr (P.sweep_to_json sweep))
        want
        (List.map
           (fun (u : Sweep.unit_spec) ->
             Mcsim.Result_store.digest ~manifest:u.manifest ~key:u.key)
           units))
    pinned_identities

(* command.json files written by earlier CLIs, under test/command_json: the
   kind under "command", a null sample policy, and — in the oldest —
   no cluster, topology, steering or result-cache keys at all. *)
let no_options =
  { Sweep.csv = false; metrics_out = None; retries = 0; trace_cache = None;
    result_cache = None; profile = false; full = false }

let command_fixtures =
  let open Spec92 in
  [ ("table2_four_way", table2 ~max_instrs:3000 ~four_way:true (),
     { no_options with csv = true; retries = 2 });
    ( "table2_sample",
      table2 ~benchmarks:[ Compress; Ora ] ~max_instrs:40_000 ~seed:3
        ~sampling:{ Sampling.interval = 10_000; warmup = 1000; detail = 1000; seed = 3 } (),
      { no_options with metrics_out = Some "m.json" } );
    ( "run_n4_ring_dependence",
      run ~max_instrs:3000 ~engine:`Scan ~clusters:4 ~topology:Mcsim_cluster.Interconnect.Ring
        ~steering:Steering.Dependence Compress,
      no_options );
    ("sample_default", sample Gcc1, { no_options with full = true });
    ( "run_pre_clusters",
      run ~machine:`Single ~scheduler:Pipeline.Sched_round_robin ~max_instrs:3000 Tomcatv,
      { no_options with trace_cache = Some "tc" } ) ]

let check_command what (sweep, o) (sweep', o') =
  check json (what ^ ": sweep") (P.sweep_to_json sweep) (P.sweep_to_json sweep');
  check Alcotest.bool (what ^ ": options") true (o = o')

let old_command_files_decode () =
  List.iter
    (fun (name, sweep, o) ->
      let read =
        Sweep.command_of_fields
          (Mcsim.Checkpoint.read_command
             ~dir:
               (Filename.concat (Filename.dirname Sys.executable_name)
                  (Filename.concat "command_json" name)))
      in
      check_command name (sweep, o) read;
      check_command (name ^ " rewritten") read
        (Sweep.command_of_fields (Sweep.command_fields (fst read) (snd read))))
    command_fixtures;
  List.iter
    (fun sweep ->
      let o = { Sweep.csv = true; metrics_out = Some "m.json"; retries = 3;
                trace_cache = Some "tc"; result_cache = Some "rc"; profile = true;
                full = true } in
      check_command "writer -> reader" (sweep, o)
        (Sweep.command_of_fields (Sweep.command_fields sweep o)))
    some_sweeps

(* --------------------------- result store -------------------------- *)

let manifest_for ?sampling ~seed bench =
  Manifest.make ~seed ~benchmark:(Spec92.name bench) ?sampling ~trace_instrs:4000
    (Machine.dual_cluster ())

let store_hit_miss_verify () =
  let dir = tmp_dir "mcsim-rs" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Mcsim.Result_store.open_ ~dir in
  let b = List.hd Spec92.all in
  let manifest = manifest_for ~seed:1 b in
  let fields = [ ("answer", Json.Int 42) ] in
  check (Alcotest.option json) "empty store misses" None
    (Mcsim.Result_store.find store ~manifest ~key:"run");
  Mcsim.Result_store.record store ~manifest ~key:"run" fields;
  (match Mcsim.Result_store.find store ~manifest ~key:"run" with
  | Some d -> check (Alcotest.option json) "hit returns fields" (Some (Json.Int 42))
                (Json.member "answer" d)
  | None -> Alcotest.fail "recorded unit not found");
  (* A different manifest or key is a different identity. *)
  check Alcotest.bool "other seed misses" true
    (Mcsim.Result_store.find store ~manifest:(manifest_for ~seed:2 b) ~key:"run" = None);
  check Alcotest.bool "other key misses" true
    (Mcsim.Result_store.find store ~manifest ~key:"sample" = None);
  (* A file copied to another identity's address fails verification:
     the stored identity, not the file name, is what answers. *)
  let dg_have = Mcsim.Result_store.digest ~manifest ~key:"run" in
  let dg_want = Mcsim.Result_store.digest ~manifest:(manifest_for ~seed:2 b) ~key:"run" in
  let path dg = Filename.concat dir ("res-" ^ dg ^ ".json") in
  let contents = In_channel.with_open_text (path dg_have) In_channel.input_all in
  Out_channel.with_open_text (path dg_want) (fun oc ->
      Out_channel.output_string oc contents);
  check Alcotest.bool "copied entry reads as a miss" true
    (Mcsim.Result_store.find store ~manifest:(manifest_for ~seed:2 b) ~key:"run" = None);
  (* Corruption decodes as a miss, and the listing flags it. *)
  Out_channel.with_open_text (path dg_have) (fun oc ->
      Out_channel.output_string oc "{ truncated");
  check Alcotest.bool "corrupt entry reads as a miss" true
    (Mcsim.Result_store.find store ~manifest ~key:"run" = None);
  let entries = Mcsim.Result_store.entries store in
  check Alcotest.int "both files listed" 2 (List.length entries);
  check Alcotest.bool "corruption flagged invalid" true
    (List.exists (fun e -> not e.Mcsim.Result_store.e_valid) entries)

let store_reads_checkpoint_dirs () =
  let dir = tmp_dir "mcsim-ckpt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let b = List.hd Spec92.all in
  let manifest = manifest_for ~seed:1 b in
  let ck = Mcsim.Checkpoint.open_ ~dir ~kind:"run" ~manifest () in
  Mcsim.Checkpoint.record ck ~key:"run" [ ("answer", Json.Int 7) ];
  (* The same identity, asked through the result store, hits the
     checkpoint-format unit file. *)
  let store = Mcsim.Result_store.open_ ~dir in
  (match Mcsim.Result_store.find store ~manifest ~key:"run" with
  | Some d -> check (Alcotest.option json) "checkpoint unit served" (Some (Json.Int 7))
                (Json.member "answer" d)
  | None -> Alcotest.fail "checkpoint-format unit not found");
  (* A different identity with the same key still misses — the stored
     manifest is verified, not the file name. *)
  check Alcotest.bool "foreign identity misses" true
    (Mcsim.Result_store.find store ~manifest:(manifest_for ~seed:9 b) ~key:"run" = None)

let store_prune () =
  let dir = tmp_dir "mcsim-prune" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Mcsim.Result_store.open_ ~dir in
  List.iteri
    (fun i b ->
      Mcsim.Result_store.record store ~manifest:(manifest_for ~seed:i b) ~key:"run"
        [ ("i", Json.Int i) ])
    (List.filteri (fun i _ -> i < 4) Spec92.all);
  check Alcotest.int "four entries" 4 (List.length (Mcsim.Result_store.entries store));
  let removed = Mcsim.Result_store.prune_keep_latest store 2 in
  check Alcotest.int "two removed" 2 (List.length removed);
  check Alcotest.int "two kept" 2 (List.length (Mcsim.Result_store.entries store));
  let removed = Mcsim.Result_store.prune_keep_latest store 0 in
  check Alcotest.int "keep 0 empties the store" 2 (List.length removed);
  check Alcotest.int "store empty" 0 (List.length (Mcsim.Result_store.entries store));
  (match Mcsim.Result_store.prune_keep_latest store (-1) with
  | _ -> Alcotest.fail "negative keep accepted"
  | exception Invalid_argument _ -> ())

(* Two handles on one directory, in two domains, recording one identity
   over and over: every write lands whole and none raises. *)
let store_concurrent_writers () =
  let dir = tmp_dir "mcsim-race" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let manifest = manifest_for ~seed:1 (List.hd Spec92.all) in
  let writes = 300 in
  let writer w () =
    let store = Mcsim.Result_store.open_ ~dir in
    for k = 1 to writes do
      Mcsim.Result_store.record store ~manifest ~key:"run"
        [ ("writer", Json.Int w); ("k", Json.Int k) ]
    done
  in
  let raised f = match f () with () -> None | exception e -> Some (Printexc.to_string e) in
  let other = Domain.spawn (fun () -> raised (writer 1)) in
  let mine = raised (writer 0) in
  let theirs = Domain.join other in
  check (Alcotest.option Alcotest.string) "writer 0 never raised" None mine;
  check (Alcotest.option Alcotest.string) "writer 1 never raised" None theirs;
  let store = Mcsim.Result_store.open_ ~dir in
  (match Mcsim.Result_store.find store ~manifest ~key:"run" with
  | Some d ->
    check (Alcotest.option json) "the entry is a last write" (Some (Json.Int writes))
      (Json.member "k" d)
  | None -> Alcotest.fail "no valid entry left");
  check (Alcotest.list Alcotest.string) "one file, no temp leftovers"
    [ "res-" ^ Mcsim.Result_store.digest ~manifest ~key:"run" ^ ".json" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------- batch result cache ----------------------- *)

let always_fault ~job:_ ~attempt:_ = true

let table2_result_cache_no_recompute () =
  let dir = tmp_dir "mcsim-t2rs" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let benchmarks = [ List.hd Spec92.all; List.nth Spec92.all 3 ] in
  let args = (3000, 1) in
  let max_instrs, seed = args in
  let fresh = Kit.rows (Mcsim.Table2.matrix ~max_instrs ~seed ~benchmarks ()) in
  let first =
    (Mcsim.Table2.run_report ~jobs:1 ~max_instrs ~seed ~benchmarks ~result_cache:dir ())
      .Mcsim.Table2.rows
  in
  check (Alcotest.list Alcotest.string) "cached sweep rows equal uncached"
    (List.map (fun r -> r.Mcsim.Table2.benchmark) fresh)
    (List.map (fun r -> r.Mcsim.Table2.benchmark) first);
  check Alcotest.string "first pass CSV" (Mcsim.Table2.csv fresh) (Mcsim.Table2.csv first);
  (* Second pass: every unit must come from the store. A fault injector
     that always fires proves it — any recomputation would fail a row. *)
  let second =
    Mcsim.Table2.run_report ~jobs:1 ~max_instrs ~seed ~benchmarks ~result_cache:dir
      ~inject_fault:always_fault ()
  in
  check Alcotest.string "second pass CSV byte-identical" (Mcsim.Table2.csv first)
    (Mcsim.Table2.csv second.Mcsim.Table2.rows);
  (* A different seed shares nothing with the cached rows. *)
  let other =
    Mcsim.Table2.run_report ~jobs:1 ~max_instrs ~seed:2 ~benchmarks ~result_cache:dir
      ~inject_fault:always_fault ()
  in
  if other.Mcsim.Table2.rows <> [] then Alcotest.fail "different seed served from cache"

(* ------------------------------ daemon ------------------------------ *)

let free_sock () =
  let path = Filename.temp_file "mcs" ".sock" in
  Sys.remove path;
  path

let with_server ?(jobs = 2) ?result_cache ?before_compute f =
  let sock = free_sock () in
  let ready = Atomic.make false in
  let cfg =
    { (Server.default ~socket_path:sock) with
      jobs;
      result_cache;
      before_compute;
      on_ready = Some (fun () -> Atomic.set ready true) }
  in
  let d = Domain.spawn (fun () -> Server.run cfg) in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect ~socket_path:sock in
         Client.stop_server c;
         Client.close c
       with _ -> ());
      Domain.join d)
    (fun () -> f sock)

let stat_counter metrics name =
  match Option.bind (Json.path [ "data"; name ] metrics) Json.get_int with
  | Some n -> n
  | None -> Alcotest.fail ("stats snapshot lacks " ^ name)

let served_equals_in_process () =
  let benchmarks = [ List.hd Spec92.all; List.nth Spec92.all 3 ] in
  let max_instrs, seed = (2500, 1) in
  with_server @@ fun sock ->
  let c = Client.connect ~socket_path:sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sweep =
    P.Table2 { benchmarks; max_instrs; seed; engine = `Wakeup; sampling = None;
               four_way = false; clusters = None; topology = p2p;
               steering = Steering.Static }
  in
  let sources = ref [] in
  let on_unit ~index:_ ~total:_ ~label:_ ~source ~data:_ = sources := source :: !sources in
  let result, served = Client.submit ~on_unit c sweep in
  let rows =
    match Client.rows_of_result result with
    | Some rows -> rows
    | None -> Alcotest.fail "malformed table2 result"
  in
  let direct = Kit.rows (Mcsim.Table2.matrix ~max_instrs ~seed ~benchmarks ()) in
  check Alcotest.string "served rows identical to in-process rows" (Mcsim.Table2.csv direct)
    (Mcsim.Table2.csv rows);
  check Alcotest.int "all units computed" (List.length benchmarks) served.P.s_computed;
  check Alcotest.bool "progress streamed per unit" true
    (List.length !sources = List.length benchmarks
    && List.for_all (fun s -> s = "computed") !sources);
  (* Resubmitting the identical sweep is answered without computing. *)
  let result2, served2 = Client.submit c sweep in
  check Alcotest.string "resubmit result byte-identical" (jstr result) (jstr result2);
  check Alcotest.int "resubmit fully cache-served: units" (List.length benchmarks)
    served2.P.s_cached;
  check Alcotest.int "resubmit fully cache-served: computed" 0 served2.P.s_computed;
  check Alcotest.int "resubmit fully cache-served: coalesced" 0 served2.P.s_coalesced;
  (* The server's own counters agree, and ping works. *)
  let m = Client.stats c in
  check Alcotest.int "stats: computed" (List.length benchmarks)
    (stat_counter m "units_computed");
  check Alcotest.int "stats: cached" (List.length benchmarks)
    (stat_counter m "units_cached");
  Client.ping c

let serve_run_and_sample_equal_in_process () =
  with_server @@ fun sock ->
  let c = Client.connect ~socket_path:sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let bench = List.hd Spec92.all in
  let max_instrs, seed = (2500, 1) in
  let scheduler = Pipeline.default_local in
  (* run *)
  let result, _ =
    Client.submit c
      (P.Run { bench; machine = `Dual; scheduler; max_instrs; seed; engine = `Wakeup;
               clusters = None; topology = p2p; steering = Steering.Static })
  in
  let served_r =
    match Option.bind (Json.member "result" result) Mcsim_obs.Metrics.result_of_json with
    | Some r -> r
    | None -> Alcotest.fail "malformed run result"
  in
  let prog = Spec92.program bench in
  let profile = Mcsim_trace.Walker.profile ~seed prog in
  let compiled = Pipeline.compile ~profile ~scheduler prog in
  let trace = Mcsim_trace.Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach in
  let direct = Machine.run_flat (Machine.dual_cluster ()) trace in
  check Alcotest.int "served run cycles = in-process cycles" direct.Machine.cycles
    served_r.Machine.cycles;
  check Alcotest.int "served trace_instrs"
    (Mcsim_isa.Flat_trace.length trace)
    (match Option.bind (Json.member "trace_instrs" result) Json.get_int with
    | Some n -> n
    | None -> -1);
  (* sample, on a trace long enough for the policy *)
  let policy = { Sampling.interval = 800; warmup = 80; detail = 80; seed } in
  let result, _ =
    Client.submit c
      (P.Sample
         { bench; machine = `Dual; scheduler; max_instrs; seed; engine = `Wakeup; policy;
           clusters = None; topology = p2p; steering = Steering.Static })
  in
  let direct_s = Sampling.run_flat ~policy (Machine.dual_cluster ()) trace in
  check (Alcotest.option json) "served sampling json = in-process"
    (Some (Mcsim_obs.Metrics.sampling_json direct_s))
    (Json.member "sampling" result)

(* The result store is only a cache: once its directory stops being
   writable the daemon still delivers each computed unit and keeps
   serving. Every read is bounded, so a wedged daemon fails the test
   instead of hanging it. *)
let serve_survives_store_write_failure () =
  let rs = tmp_dir "mcsim-rsfail" in
  Fun.protect ~finally:(fun () -> try Sys.remove rs with Sys_error _ -> ()) @@ fun () ->
  with_server ~jobs:1 ~result_cache:rs @@ fun sock ->
  rm_rf rs;
  Out_channel.with_open_text rs ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let r = P.reader () in
  let rec await id resp =
    match P.read_frame fd r with
    | None -> Alcotest.fail "server closed the connection"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "no %s response within 30 s" resp
    | Some j -> (
      match Option.bind (Json.member "resp" j) Json.get_string with
      | Some "error" -> Alcotest.fail ("server error: " ^ jstr j)
      | Some r' when r' = resp && Option.bind (Json.member "id" j) Json.get_int = Some id -> j
      | _ -> await id resp)
  in
  let max_instrs, seed, scheduler = (2500, 1, Pipeline.Sched_none) in
  let submit id bench =
    let sweep =
      P.Run { bench; machine = `Dual; scheduler; max_instrs; seed; engine = `Wakeup;
              clusters = None; topology = p2p; steering = Steering.Static }
    in
    P.write_frame fd (P.request_to_json (P.Submit { id; sweep }));
    await id "done"
  in
  let bench = List.hd Spec92.all in
  let d = submit 1 bench in
  check (Alcotest.option Alcotest.int) "the unit was computed" (Some 1)
    (Option.map
       (fun s -> s.P.s_computed)
       (Option.bind (Json.member "served" d) P.served_of_json));
  let prog = Spec92.program bench in
  let profile = Mcsim_trace.Walker.profile ~seed prog in
  let compiled = Pipeline.compile ~profile ~scheduler prog in
  let trace = Mcsim_trace.Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach in
  check (Alcotest.option json) "delivered result = in-process result"
    (Some (Mcsim_obs.Metrics.result_json (Machine.run_flat (Machine.dual_cluster ()) trace)))
    (Json.path [ "result"; "result" ] d);
  ignore (submit 2 (List.nth Spec92.all 3));
  P.write_frame fd (P.request_to_json (P.Stats 3));
  match Json.member "metrics" (await 3 "stats") with
  | Some m -> check Alcotest.int "both units computed" 2 (stat_counter m "units_computed")
  | None -> Alcotest.fail "stats response without metrics"

let concurrent_submits_coalesce () =
  let gate = Atomic.make false in
  let before_compute _ =
    while not (Atomic.get gate) do
      Unix.sleepf 0.002
    done
  in
  with_server ~jobs:2 ~before_compute @@ fun sock ->
  let sweep =
    P.Run
      { bench = List.hd Spec92.all; machine = `Dual; scheduler = Pipeline.default_local;
        max_instrs = 2500; seed = 1; engine = `Wakeup; clusters = None; topology = p2p;
        steering = Steering.Static }
  in
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let a = raw () and b = raw () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
  @@ fun () ->
  P.write_frame a (P.request_to_json (P.Submit { id = 1; sweep }));
  P.write_frame b (P.request_to_json (P.Submit { id = 1; sweep }));
  (* Wait until the server has registered both submits against the one
     in-flight unit, then let the (gated) computation proceed. *)
  let stats_c = Client.connect ~socket_path:sock in
  Fun.protect ~finally:(fun () -> Client.close stats_c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_registered () =
    let m = Client.stats stats_c in
    if stat_counter m "units_requested" >= 2 && stat_counter m "in_flight" = 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "submits never registered"
    else begin
      Unix.sleepf 0.01;
      wait_registered ()
    end
  in
  wait_registered ();
  Atomic.set gate true;
  let read_done fd =
    let r = P.reader () in
    let rec loop () =
      match P.read_frame fd r with
      | None -> Alcotest.fail "connection closed before done"
      | Some j -> (
        match Option.bind (Json.member "resp" j) Json.get_string with
        | Some "done" -> j
        | Some "error" -> Alcotest.fail ("server error: " ^ jstr j)
        | _ -> loop ())
    in
    loop ()
  in
  let da = read_done a and db = read_done b in
  check json "both clients get the same result"
    (Option.get (Json.member "result" da))
    (Option.get (Json.member "result" db));
  (* Exactly one computation happened; the other client coalesced. *)
  let m = Client.stats stats_c in
  check Alcotest.int "one unit computed" 1 (stat_counter m "units_computed");
  check Alcotest.int "one unit coalesced" 1 (stat_counter m "units_coalesced");
  check Alcotest.int "nothing left in flight" 0 (stat_counter m "in_flight")

let disconnect_mid_sweep_leaves_server_healthy () =
  let gate = Atomic.make false in
  let before_compute _ =
    while not (Atomic.get gate) do
      Unix.sleepf 0.002
    done
  in
  with_server ~jobs:2 ~before_compute @@ fun sock ->
  let sweep =
    P.Run
      { bench = List.hd Spec92.all; machine = `Dual; scheduler = Pipeline.default_local;
        max_instrs = 2500; seed = 1; engine = `Wakeup; clusters = None; topology = p2p;
        steering = Steering.Static }
  in
  (* Submit, then vanish while the unit is still computing. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  P.write_frame fd (P.request_to_json (P.Submit { id = 1; sweep }));
  let c = Client.connect ~socket_path:sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_inflight () =
    let m = Client.stats c in
    if stat_counter m "in_flight" = 1 then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail "unit never in flight"
    else begin
      Unix.sleepf 0.01;
      wait_inflight ()
    end
  in
  wait_inflight ();
  Unix.close fd;
  Atomic.set gate true;
  (* The server must still answer — and the orphaned computation's
     result must have landed in the cache, so this submit needs no
     recompute once it has finished. *)
  Client.ping c;
  let _, served = Client.submit c sweep in
  check Alcotest.int "one unit served" 1 served.P.s_units;
  (* The orphan's computation either finished (cache hit) or is still in
     flight (coalesce) — either way this client computes nothing. *)
  check Alcotest.int "orphaned unit was not recomputed" 0 served.P.s_computed;
  Client.ping c

(* A well-formed but invalid sweep is refused with a one-line error
   naming the cause; neither the connection nor the daemon goes down. *)
let invalid_submits_are_refused () =
  with_server @@ fun sock ->
  let c = Client.connect ~socket_path:sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let refused sweep cause =
    match Client.submit c sweep with
    | _ -> Alcotest.fail ("served an invalid sweep: " ^ jstr (P.sweep_to_json sweep))
    | exception Failure m ->
      check Alcotest.bool (Printf.sprintf "%S names %S" m cause) true (contains m cause);
      check Alcotest.bool "error is one line" false (String.contains m '\n')
  in
  let compress = List.hd Spec92.all in
  refused (run ~max_instrs:2000 ~clusters:3 compress) "1, 2, 4 or 8";
  refused (table2 ~max_instrs:2000 ~four_way:true ~clusters:4 ()) "mutually exclusive";
  refused
    (run ~max_instrs:2000 ~clusters:1 ~steering:Steering.Dependence compress)
    "needs a clustered machine";
  let _, served = Client.submit c (run ~max_instrs:2000 compress) in
  check Alcotest.int "valid submit on the same connection computed" 1 served.P.s_computed;
  let m = Client.stats c in
  check Alcotest.int "stats: every submit counted" 4 (stat_counter m "submits");
  check Alcotest.int "stats: only the valid one has units" 1
    (stat_counter m "units_requested")

let qcheck_served_equals_in_process =
  Kit.qcheck
    (QCheck.Test.make ~count:4
       ~name:"served run matches in-process run (random bench/seed/machine)"
       (QCheck.make
          ~print:(fun (b, s, m) ->
            Printf.sprintf "%s seed=%d %s" (Spec92.name b) s
              (match m with `Single -> "single" | `Dual -> "dual"))
          QCheck.Gen.(
            triple (oneofl Spec92.all) (int_range 1 3) (oneofl [ `Single; `Dual ])))
       (fun (bench, seed, machine) ->
         let max_instrs = 2000 in
         let scheduler = Pipeline.default_local in
         with_server @@ fun sock ->
         let c = Client.connect ~socket_path:sock in
         Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
         let result, _ =
           Client.submit c
             (P.Run { bench; machine; scheduler; max_instrs; seed; engine = `Wakeup;
                      clusters = None; topology = p2p; steering = Steering.Static })
         in
         let served_r =
           match
             Option.bind (Json.member "result" result) Mcsim_obs.Metrics.result_of_json
           with
           | Some r -> r
           | None -> failwith "malformed run result"
         in
         let prog = Spec92.program bench in
         let profile = Mcsim_trace.Walker.profile ~seed prog in
         let compiled = Pipeline.compile ~profile ~scheduler prog in
         let trace =
           Mcsim_trace.Walker.trace_flat ~seed ~max_instrs compiled.Pipeline.mach
         in
         let cfg =
           match machine with
           | `Single -> Machine.single_cluster ()
           | `Dual -> Machine.dual_cluster ()
         in
         let direct = Machine.run_flat cfg trace in
         served_r.Machine.cycles = direct.Machine.cycles
         && served_r.Machine.retired = direct.Machine.retired))

let server_refuses_second_listener () =
  with_server @@ fun sock ->
  match Server.run (Server.default ~socket_path:sock) with
  | () -> Alcotest.fail "second server claimed a live socket"
  | exception Failure e ->
    check Alcotest.bool "refusal names the socket" true
      (try
         ignore (Str.search_forward (Str.regexp_string "already listening") e 0);
         true
       with Not_found -> false)

(* A path that holds anything but a socket is not the server's to
   delete: the file survives byte for byte. *)
let server_keeps_a_regular_file () =
  let dir = tmp_dir "mcsim-serve-file" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "precious.txt" in
  let body = "not a socket\n\000binary tail" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body);
  (match Server.run (Server.default ~socket_path:path) with
  | () -> Alcotest.fail "server claimed a regular file"
  | exception Failure e ->
    check Alcotest.bool "one-line refusal" false (String.contains e '\n'));
  check Alcotest.string "file untouched" body
    (In_channel.with_open_bin path In_channel.input_all)

(* A socket that cannot be bound is a one-line CLI error naming the path,
   not an uncaught Unix_error. *)
let server_bind_error_is_one_line () =
  let dir = tmp_dir "mcsim-serve-bind" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat (Filename.concat dir "missing") "s.sock" in
  match Mcsim.Cli_errors.handle (fun () -> Server.run (Server.default ~socket_path:path)) with
  | Ok () -> Alcotest.fail "server listened in a missing directory"
  | Error line ->
    check Alcotest.bool "one line" false (String.contains line '\n');
    check Alcotest.bool "names the path" true
      (try
         ignore (Str.search_forward (Str.regexp_string path) line 0);
         true
       with Not_found -> false)

let suite =
  ( "serve",
    [ case "protocol: frame round-trip, byte at a time" frame_roundtrip;
      case "protocol: hostile frames fail one-line" frame_hostile;
      case "protocol: sweep codec round-trip" sweep_codec_roundtrip;
      case "protocol: sweep codec rejects junk" sweep_codec_rejects;
      case "protocol: request codec round-trip" request_codec_roundtrip;
      qcheck_sweep_roundtrip;
      case "run spec: every scheduler's printed name parses back" scheduler_names_parse_back;
      case "run spec: unit cache identities pinned" cache_identities_pinned;
      case "run spec: old command.json files decode, new ones round-trip"
        old_command_files_decode;
      case "result store: hit/miss/identity verification" store_hit_miss_verify;
      case "result store: reads checkpoint directories" store_reads_checkpoint_dirs;
      case "result store: prune keep-latest" store_prune;
      case "result store: concurrent writers of one identity never collide"
        store_concurrent_writers;
      case "table2 --result-cache: zero recompute, identical CSV"
        table2_result_cache_no_recompute;
      case "daemon: served table2 ≡ in-process, resubmit fully cached"
        served_equals_in_process;
      case "daemon: run and sample results ≡ in-process"
        serve_run_and_sample_equal_in_process;
      case "daemon: concurrent identical submits coalesce to one computation"
        concurrent_submits_coalesce;
      case "daemon: mid-sweep disconnect leaves the server healthy"
        disconnect_mid_sweep_leaves_server_healthy;
      case "daemon: invalid submits refused, connection and daemon survive"
        invalid_submits_are_refused;
      qcheck_served_equals_in_process;
      case "daemon: a failed result-store write is logged, the daemon keeps serving"
        serve_survives_store_write_failure;
      case "daemon: live socket refused to a second server" server_refuses_second_listener;
      case "daemon: a regular file at the socket path is refused and kept"
        server_keeps_a_regular_file;
      case "daemon: socket set-up errors are one line" server_bind_error_is_one_line ] )
