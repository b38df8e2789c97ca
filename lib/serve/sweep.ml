module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Sampling = Mcsim_sampling.Sampling
module Profile_counters = Mcsim_util.Profile_counters
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Machines and traces                                                 *)
(* ------------------------------------------------------------------ *)

let config ?(what = "run") ?clusters ?(topology = Mcsim_cluster.Interconnect.Point_to_point)
    ?(steering = Mcsim_cluster.Steering.Static) machine =
  let n =
    match (clusters, machine) with Some n, _ -> n | None, `Single -> 1 | None, `Dual -> 2
  in
  let base = Machine.config_for_clusters ~topology n in
  Mcsim_cluster.Steering.require_clustered ~what steering ~clusters:n;
  { base with Machine.steering }

let machine_pair ~four_way ?clusters ~topology ~steering () =
  if four_way && clusters <> None then
    failwith "table2: --four-way and --clusters are mutually exclusive";
  if four_way then
    ( Some (Machine.config_for_clusters ~width:4 ~topology 1),
      { (Machine.config_for_clusters ~width:4 ~topology 2) with Machine.steering } )
  else (None, config ~what:"table2" ?clusters ~topology ~steering `Dual)

let binary ?(clusters = 2) scheduler = { Mcsim.Experiment.native with clusters; scheduler }

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

type unit_spec = {
  label : string;
  manifest : Manifest.t;
  key : string;
  compute : unit -> (string * Json.t) list;
}

let units ?trace_cache ?profile = function
  | P.Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology;
        steering } ->
    let single_config, dual_config = machine_pair ~four_way ?clusters ~topology ~steering () in
    let unit b =
      let manifest, key =
        Mcsim.Table2.row_store_unit ~engine ?sampling ?single_config ~dual_config ~max_instrs
          ~seed b
      in
      { label = Spec92.name b;
        manifest;
        key;
        compute =
          (fun () ->
            match
              Mcsim.Experiment.run ~jobs:1 ~engine ?trace_cache
                (Mcsim.Table2.matrix ~max_instrs ~seed ~benchmarks:[ b ] ?sampling
                   ?single_config ~dual_config ())
              |> Mcsim.Experiment.get_all
            with
            | [ row ] -> [ ("row", Mcsim.Table2.row_json row) ]
            | _ -> failwith "table2 unit produced no row") }
    in
    let assemble slots =
      let row fields = Option.value (List.assoc_opt "row" fields) ~default:Json.Null in
      Json.Obj [ ("rows", Json.List (Array.to_list (Array.map row slots))) ]
    in
    (List.map unit benchmarks, assemble)
  | P.Run { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }
    ->
    let cfg = config ~what:"run" ?clusters ~topology ~steering machine in
    let compute () =
      let trace =
        Mcsim.Experiment.trace_of ?trace_cache ~seed ~max_instrs (Spec92.program bench)
          (binary ?clusters scheduler)
      in
      Option.iter Profile_counters.alloc_start profile;
      let r = Machine.run_flat ~engine ?profile cfg trace in
      Option.iter Profile_counters.alloc_stop profile;
      [ ("result", Metrics.result_json r);
        ("trace_instrs", Json.Int (Mcsim_isa.Flat_trace.length trace)) ]
    in
    ( [ { label = Spec92.name bench;
          manifest =
            Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
              ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs cfg;
          key = "run";
          compute } ],
      fun slots -> Json.Obj slots.(0) )
  | P.Sample
      { bench; machine; scheduler; max_instrs; seed; engine; policy; clusters; topology;
        steering } ->
    let cfg = config ~what:"sample" ?clusters ~topology ~steering machine in
    let compute () =
      let trace =
        Mcsim.Experiment.trace_of ?trace_cache ~seed ~max_instrs (Spec92.program bench)
          (binary ?clusters scheduler)
      in
      let s = Sampling.run_flat ~engine ~policy cfg trace in
      [ ("sampling", Metrics.sampling_json s);
        ("result", Metrics.result_json s.Sampling.machine) ]
    in
    ( [ { label = Spec92.name bench;
          manifest =
            Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
              ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs
              ~sampling:policy cfg;
          key = "sample";
          compute } ],
      fun slots -> Json.Obj slots.(0) )

let run_of_fields d =
  match
    ( Option.bind (Json.member "result" d) Metrics.result_of_json,
      Option.bind (Json.member "trace_instrs" d) Json.get_int )
  with
  | Some r, Some n -> Some (r, n)
  | _ -> None

let sample_of_fields ~seed d =
  match (Option.bind (Json.member "result" d) Metrics.result_of_json, Json.member "sampling" d)
  with
  | Some machine, Some sj -> Metrics.sampling_of_json ~seed ~machine sj
  | _ -> None

(* ------------------------------------------------------------------ *)
(* command.json                                                        *)
(* ------------------------------------------------------------------ *)

type options = {
  csv : bool;
  metrics_out : string option;
  retries : int;
  trace_cache : string option;
  result_cache : string option;
  profile : bool;
  full : bool;
}

let path_json = function Some p -> Json.String p | None -> Json.Null

let command_fields sweep o =
  let sweep_fields = match P.sweep_to_json sweep with Json.Obj f -> f | _ -> assert false in
  sweep_fields
  @ [ ("csv", Json.Bool o.csv);
      ("metrics_out", path_json o.metrics_out);
      ("retries", Json.Int o.retries);
      ("trace_cache", path_json o.trace_cache);
      ("result_cache", path_json o.result_cache);
      ("profile", Json.Bool o.profile);
      ("full", Json.Bool o.full) ]

let command_of_fields fields =
  let field k = List.assoc_opt k fields in
  (* Earlier writers named the kind "command", and recorded a sample
     without --sample as a null policy meaning the default one. The
     prepended bindings shadow the originals. *)
  let kind =
    match field "kind" with
    | Some k -> k
    | None -> Option.value (field "command") ~default:Json.Null
  in
  let legacy =
    ("kind", kind)
    ::
    (match (kind, field "sampling") with
    | Json.String "sample", Some Json.Null ->
      [ ("sampling", Json.String (Sampling.policy_to_string Sampling.default_policy)) ]
    | _ -> [])
  in
  let sweep = P.sweep_of_json (Json.Obj (legacy @ fields)) in
  let path k = match field k with Some (Json.String p) -> Some p | _ -> None in
  let flag k = field k = Some (Json.Bool true) in
  ( sweep,
    { csv = flag "csv";
      metrics_out = path "metrics_out";
      retries = Option.value (Option.bind (field "retries") Json.get_int) ~default:0;
      trace_cache = path "trace_cache";
      result_cache = path "result_cache";
      profile = flag "profile";
      full = flag "full" } )
