(* Per-layer metrics of the traced run. Every workload reports the same
   names, in the same order (see README.md): a layer the workload's own
   process never calls reads 0, and so does a ratio whose base is 0. *)

open Common
module Machine = Mcsim_cluster.Machine
module Profile_counters = Mcsim_util.Profile_counters
module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Result_store = Mcsim.Result_store
module P = Mcsim_serve.Protocol

(* The lib/<dir> libraries with metrics of their own, and those a
   workload's set-up calls. *)
let layers =
  [ "workload"; "trace"; "compiler"; "trace_store"; "cluster"; "sampling"; "obs"; "result_store";
    "serve" ]

let setup_layers = [ "workload"; "trace"; "compiler"; "trace_store" ]

let stages =
  let p = Machine.profile_counters () in
  List.init (Profile_counters.n_stages p) (Profile_counters.stage_name p)

(* ------------------------------------------------------------------ *)
(* The per-result pass                                                 *)
(* ------------------------------------------------------------------ *)

(* One result of a workload, as the result store files it and the serve
   daemon frames it. *)
type result = {
  sweep : P.sweep;  (** the sweep a client submits for it *)
  encode : unit -> string;  (** the typed result to JSON text, through the obs codecs *)
  decode : string -> unit;  (** JSON text back to the typed result *)
  units : (Manifest.t * string * (string * Json.t) list) list;
      (** result-store identity and recorded fields of each unit *)
  answer : Json.t;  (** the [result] a [done] frame carries *)
}

(* Run [f] over [results] for at least [seconds], one span per call;
   microseconds per call. *)
let per_result ~seconds ~layer ~name results f =
  let t_end = now () +. seconds in
  let rec go () =
    List.iter (fun r -> Span.with_ ~layer ~name ~item:(P.sweep_kind r.sweep) (fun () -> f r)) results;
    if now () < t_end then go ()
  in
  go ();
  1e6 *. mean (List.map Span.duration (Span.named ~phase:"micro" layer name))

(* Each result through the obs codecs, into and out of a scratch result
   store, and framed as a [done] response with its submit. *)
let result_metrics ~work ~seconds results =
  Span.phase := "micro";
  let store = Result_store.open_ ~dir:(fresh_dir (Filename.concat work "results-micro")) in
  let each_unit g r = List.iter (fun (manifest, key, fields) -> g ~manifest ~key fields) r.units in
  let record_us =
    per_result ~seconds ~layer:"result_store" ~name:"record" results
      (each_unit (fun ~manifest ~key fields -> Result_store.record store ~manifest ~key fields))
  in
  List.iter
    (each_unit (fun ~manifest ~key _ ->
         check
           (Result_store.find store ~manifest ~key <> None)
           "every recorded unit is found under its identity"))
    results;
  let find_us =
    per_result ~seconds ~layer:"result_store" ~name:"find" results
      (each_unit (fun ~manifest ~key _ -> ignore (Result_store.find store ~manifest ~key)))
  in
  let digest_us =
    per_result ~seconds ~layer:"result_store" ~name:"digest" results
      (each_unit (fun ~manifest ~key _ -> ignore (Result_store.digest ~manifest ~key)))
  in
  rm_rf (Result_store.dir store);
  let texts = List.map (fun r -> (r, r.encode ())) results in
  let encode_us = per_result ~seconds ~layer:"obs" ~name:"encode" results (fun r -> ignore (r.encode ())) in
  let decode_us =
    per_result ~seconds ~layer:"obs" ~name:"decode" results (fun r -> r.decode (List.assq r texts))
  in
  (* Per frame: the submit frame and the done frame that answers it, each
     encoded and decoded. *)
  let frame_us =
    per_result ~seconds ~layer:"serve" ~name:"frame" results (fun r ->
        let n = List.length r.units in
        let served = { P.s_units = n; s_cached = n; s_computed = 0; s_coalesced = 0 } in
        let rd = P.reader () in
        P.push rd (P.frame_string (P.request_to_json (P.Submit { id = 1; sweep = r.sweep })));
        P.push rd
          (P.frame_string
             (P.done_response ~id:1 ~kind:(P.sweep_kind r.sweep) ~result:r.answer ~served));
        ignore (P.pop rd);
        ignore (P.pop rd))
    /. 2.0
  in
  let bytes = mean (List.map (fun (_, t) -> float_of_int (String.length t)) texts) in
  Span.phase := "timed";
  [ metric "obs.encode_us" "us" encode_us;
    metric "obs.decode_us" "us" decode_us;
    metric "obs.bytes" "bytes" bytes;
    metric "result_store.digest_us" "us" digest_us;
    metric "result_store.find_us" "us" find_us;
    metric "result_store.record_us" "us" record_us;
    metric "serve.frame_us" "us" frame_us ]

(* ------------------------------------------------------------------ *)
(* Everything the traced run reports                                   *)
(* ------------------------------------------------------------------ *)

type inputs = {
  wall : float;  (** wall seconds of the traced timed flow *)
  setup_wall : float;  (** wall seconds of the traced set-up; 0 when none runs in process *)
  overhead : float;  (** traced over untraced time per flow iteration, minus 1 *)
  walked : float;  (** instructions the traced set-up walked *)
  lookups : [ `Hit | `Miss ] list;  (** the timed flow's trace-store lookups *)
  simulated : float;  (** instructions the timed flow's cluster spans simulated or warmed *)
  runs : (Machine.result * int * int) list;
      (** one flow iteration's machine results, each with the instructions
          and cycles reported for it *)
  profile : (Profile_counters.t * float) option;
      (** stage counters of a profiled re-run, and the detailed
          instructions they cover *)
  detailed : int;  (** instructions simulated in detail, per flow iteration *)
  warmed : int;  (** instructions only warmed, per flow iteration *)
  units : int;  (** sampling units, per flow iteration *)
  frames_per_submit : float;
  bytes_per_submit : float;
  cached_ratio : float;
  results : result list;  (** for the per-result pass *)
}

let empty =
  { wall = 0.0; setup_wall = 0.0; overhead = 0.0; walked = 0.0; lookups = [];
    simulated = 0.0; runs = []; profile = None; detailed = 0; warmed = 0; units = 0;
    frames_per_submit = 0.0; bytes_per_submit = 0.0; cached_ratio = 0.0; results = [] }

(* Self time, self minor words and calls of [layer] in [selfs] (as
   [Span.self_by_layer] gives them); zeros for a layer never called. *)
let self_of selfs layer = Option.value ~default:(0.0, 0.0, 0) (List.assoc_opt layer selfs)

let span_totals ~phase layer name =
  List.fold_left
    (fun (t, w) s -> (t +. Span.duration s, w +. Span.words s))
    (0.0, 0.0) (Span.named ~phase layer name)

(* Seconds each measurement of the per-result pass repeats for. *)
let micro_seconds = 0.25

let metrics ~work i =
  let fl = float_of_int in
  let timed = Span.self_by_layer (Span.in_phase "timed") in
  let setup = Span.self_by_layer (Span.in_phase "setup") in
  let accounted = List.fold_left (fun acc (_, (t, _, _)) -> acc +. t) 0.0 timed in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 i.runs in
  let res f = sum (fun (r, _, _) -> f r) in
  let instrs = sum (fun (_, n, _) -> n) and cycles = sum (fun (_, _, c) -> c) in
  let single = res (fun r -> r.Machine.single_distributed)
  and dual = res (fun r -> r.Machine.dual_distributed) in
  let hits = res (fun r -> Machine.counter r "steer_hits")
  and falls = res (fun r -> Machine.counter r "steer_fallbacks") in
  let _, walk_words = span_totals ~phase:"setup" "trace" "walk" in
  let _, cluster_words, _ = self_of timed "cluster" in
  let store_hits = List.length (List.filter (fun h -> h = `Hit) i.lookups) in
  List.concat_map
    (fun layer ->
      let t, w, n = self_of timed layer in
      [ metric (layer ^ ".self_frac") "fraction" (ratio t i.wall);
        metric (layer ^ ".words_per_call") "words/call" (ratio w (fl n)) ])
    layers
  @ List.map
      (fun layer ->
        let t, _, _ = self_of setup layer in
        metric (layer ^ ".setup_frac") "fraction" (ratio t i.setup_wall))
      setup_layers
  @ [ metric "unaccounted_frac" "fraction" (ratio (i.wall -. accounted) i.wall);
      metric "trace_overhead_frac" "fraction" i.overhead;
      metric "trace.walk_words_per_instr" "words/instr" (ratio walk_words i.walked);
      metric "trace_store.hit_ratio" "fraction"
        (ratio (fl store_hits) (fl (List.length i.lookups)));
      metric "cluster.words_per_instr" "words/instr"
        (ratio cluster_words i.simulated) ]
  @ List.concat
      (List.mapi
         (fun k stage ->
           let work, words, base =
             match i.profile with
             | Some (p, n) ->
               (fl (Profile_counters.work p k), Profile_counters.alloc p k, n)
             | None -> (0.0, 0.0, 0.0)
           in
           [ metric ("cluster." ^ stage ^ ".work_per_instr") "items/instr" (ratio work base);
             metric ("cluster." ^ stage ^ ".words_per_instr") "words/instr" (ratio words base) ])
         stages)
  @ [ metric "cluster.ipc" "instr/cycle" (ratio (fl instrs) (fl cycles));
      metric "cluster.multi_frac" "fraction" (ratio (fl dual) (fl (single + dual)));
      metric "cluster.replays" "count" (fl (res (fun r -> r.Machine.replays)));
      metric "cluster.steer_hit_ratio" "fraction" (ratio (fl hits) (fl (hits + falls)));
      metric "sampling.detailed_frac" "fraction" (ratio (fl i.detailed) (fl (i.detailed + i.warmed)));
      metric "sampling.units" "count" (fl i.units);
      metric "serve.frames_per_submit" "frames" i.frames_per_submit;
      metric "serve.bytes_per_submit" "bytes" i.bytes_per_submit;
      metric "serve.cached_ratio" "fraction" i.cached_ratio ]
  @ result_metrics ~work ~seconds:micro_seconds i.results
