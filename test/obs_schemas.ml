(* The observability artifacts of three CLI runs (test/dune makes them:
   `mcsim trace compress -n 20000`, `run compress -n 20000 --profile
   --metrics-out` and `sample compress -n 100000 --metrics-out`) parse
   as JSON and carry their schema: the trace holds every event phase
   the exporter writes and the full manifest, and each metrics snapshot
   has the four top-level keys, its kind and the full manifest. The
   committed results.json (CI diffs it against `mcsim results -j 2`) is
   a `results` snapshot with no timestamp or timings, every section's
   trace length, the fourteen ablation sweeps and its Table-2 claims,
   which are printed. *)

module Json = Mcsim_obs.Json

let manifest_keys =
  [ "mcsim_version"; "schema_version"; "created_unix"; "engine"; "seed"; "benchmark";
    "scheduler"; "trace_instrs"; "sampling"; "config_desc"; "config_digest" ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("obs_schemas: " ^ msg);
      exit 1)
    fmt

let load path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let field what k j =
  match Json.member k j with Some v -> v | None -> fail "%s lacks %S" what k

let has_manifest what j =
  let m = field what "manifest" j in
  List.iter (fun k -> ignore (field (what ^ " manifest") k m)) manifest_keys

let trace path =
  let t = load path in
  let events =
    match field path "traceEvents" t with
    | Json.List (_ :: _ as l) -> l
    | _ -> fail "%s: traceEvents is not a non-empty list" path
  in
  let phases = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Json.member "ph" e with
      | Some (Json.String ph) -> Hashtbl.replace phases ph ()
      | _ -> fail "%s: an event without a \"ph\" string" path)
    events;
  List.iter
    (fun ph -> if not (Hashtbl.mem phases ph) then fail "%s: missing phase %S" path ph)
    [ "M"; "i"; "b"; "e"; "C"; "s"; "f" ];
  has_manifest path (field path "otherData" t)

let snapshot path kind =
  let s = load path in
  List.iter (fun k -> ignore (field path k s)) [ "schema_version"; "kind"; "manifest"; "data" ];
  if Json.member "kind" s <> Some (Json.String kind) then fail "%s: kind is not %S" path kind;
  has_manifest path s

let results path =
  snapshot path "results";
  let s = load path in
  if Option.bind (Json.path [ "manifest"; "created_unix" ] s) Json.get_float <> Some 0.0 then
    fail "%s must not be timestamped" path;
  let data = field path "data" s in
  List.iter
    (fun k -> if field path k data <> Json.Null then fail "%s: %s is not null" path k)
    [ "wall_seconds"; "gc" ];
  List.iter
    (fun section ->
      match field path "max_instrs" (field path section data) with
      | Json.Int _ -> ()
      | _ -> fail "%s: %s.max_instrs is not an integer" path section)
    [ "table2"; "clusters"; "steer"; "sampling_accuracy"; "unrolling_kernel"; "ablations" ];
  let sweeps = List.length (Json.to_list (field path "sweeps" (field path "ablations" data))) in
  if sweeps <> 14 then fail "%s: %d ablation sweeps, want 14" path sweeps;
  let claims k =
    match field path k (field path "table2" data) with
    | Json.List l -> l
    | _ -> fail "%s: table2.%s is not a list" path k
  in
  List.iter
    (fun c ->
      match (Json.member "holds" c, Json.member "claim" c) with
      | Some (Json.Bool holds), Some (Json.String claim) ->
        Printf.printf "[%s] %s\n" (if holds then "ok" else "MISS") claim
      | _ -> fail "%s: a Table-2 claim without a \"holds\" bool and a \"claim\" string" path)
    (claims "shape_holds" @ claims "cycle_time")

let () =
  trace "compress.trace.json";
  snapshot "METRICS_run.json" "run";
  snapshot "METRICS_sample.json" "sample";
  results "../results.json";
  print_endline "observability and results.json schemas ok"
