module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Pool = Mcsim_util.Pool

type row = {
  benchmark : string;
  none_pct : float;
  local_pct : float;
  single_cycles : int;
  none_cycles : int;
  local_cycles : int;
  none_replays : int;
  local_replays : int;
}

let paper =
  [ ("compress", -14.0, 6.0); ("doduc", -21.0, -15.0); ("gcc1", -15.0, -10.0);
    ("ora", -5.0, -22.0); ("su2cor", -36.0, -25.0); ("tomcatv", -41.0, -19.0) ]

(* The published (none, local) pair of a benchmark the paper reports. *)
let paper_of benchmark =
  List.find_map (fun (n, a, b) -> if n = benchmark then Some (a, b) else None) paper

type report = {
  rows : row list;  (** in benchmark order, failed benchmarks omitted *)
  failed : (string * string) list;  (** (benchmark, one-line reason) *)
}

(* ------------------------------------------------------------------ *)
(* Row (de)serialization and the global result cache                    *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json

(* A column's value in one row: measured percentages print to two
   decimals in CSV, the paper's to one, and a benchmark the paper does
   not report leaves its paper columns empty (CSV) or null (JSON). *)
type value = Text of string | Pct of float | Paper of float option | Count of int

(* Every Table-2 column, in output order: the CSV, the results JSON and
   (without the two paper columns) the stored row. *)
let columns =
  let paper pick r = Paper (Option.map pick (paper_of r.benchmark)) in
  [ ("benchmark", fun r -> Text r.benchmark);
    ("none_pct", fun r -> Pct r.none_pct);
    ("none_pct_paper", paper fst);
    ("local_pct", fun r -> Pct r.local_pct);
    ("local_pct_paper", paper snd);
    ("single_cycles", fun r -> Count r.single_cycles);
    ("none_cycles", fun r -> Count r.none_cycles);
    ("local_cycles", fun r -> Count r.local_cycles);
    ("none_replays", fun r -> Count r.none_replays);
    ("local_replays", fun r -> Count r.local_replays) ]

let json_of = function
  | Text s -> Json.String s
  | Pct v | Paper (Some v) -> Json.Float v
  | Paper None -> Json.Null
  | Count n -> Json.Int n

let row_json r =
  Json.Obj
    (List.filter_map
       (fun (name, col) ->
         match col r with Paper _ -> None | v -> Some (name, json_of v))
       columns)

let rows_json rows =
  let obj r = Json.Obj (List.map (fun (name, col) -> (name, json_of (col r))) columns) in
  Json.List (List.map obj rows)

let csv rows =
  let text = function
    | Text s -> s
    | Pct v -> Printf.sprintf "%.2f" v
    | Paper (Some v) -> Printf.sprintf "%.1f" v
    | Paper None -> ""
    | Count n -> string_of_int n
  in
  let line r = List.map (fun (_, col) -> text (col r)) columns in
  Mcsim_util.Text_table.csv (List.map fst columns :: List.map line rows)

let ( let* ) = Option.bind

let row_of_json j =
  let int k = Option.bind (Json.member k j) Json.get_int in
  let* benchmark = Option.bind (Json.member "benchmark" j) Json.get_string in
  let* none_pct = Option.bind (Json.member "none_pct" j) Json.get_float in
  let* local_pct = Option.bind (Json.member "local_pct" j) Json.get_float in
  let* single_cycles = int "single_cycles" in
  let* none_cycles = int "none_cycles" in
  let* local_cycles = int "local_cycles" in
  let* none_replays = int "none_replays" in
  let* local_replays = int "local_replays" in
  Some
    { benchmark; none_pct; local_pct; single_cycles; none_cycles; local_cycles;
      none_replays; local_replays }

(* The global-store identity of one Table-2 row. The manifest pins the
   dual config (digest), seed, engine, sampling policy, trace budget and
   benchmark; the key carries what the manifest cannot: the single
   config and the sampling policy's own seed. The serve daemon and the
   batch [--result-cache] path both address rows through this, which is
   what lets them share one cache. *)
let row_store_unit ?engine ?sampling ?single_config ?dual_config ~max_instrs ~seed b =
  let single_config =
    match single_config with Some c -> c | None -> Machine.single_cluster ()
  in
  let dual_config =
    match dual_config with Some c -> c | None -> Machine.dual_cluster ()
  in
  let manifest =
    Mcsim_obs.Manifest.make ?engine ~seed ?sampling ~benchmark:(Spec92.name b)
      ~trace_instrs:max_instrs dual_config
  in
  let key =
    Printf.sprintf "table2/row:single=%s:sampling_seed=%s"
      (Digest.to_hex (Digest.string (Mcsim_obs.Manifest.config_description single_config)))
      (match sampling with
      | Some p -> string_of_int p.Mcsim_sampling.Sampling.seed
      | None -> "-")
  in
  (manifest, key)

let find_cached_row store ~manifest ~key =
  let* d = Result_store.find store ~manifest ~key in
  let* rj = Json.member "row" d in
  row_of_json rj

let record_row store ~manifest ~key row =
  Result_store.record store ~manifest ~key [ ("row", row_json row) ]

(* Look the benchmark list up in the global result store, run the
   misses through [run_missing] and record what it produces. With a
   [checkpoint] the lookup is skipped — the checkpoint identity pins the
   benchmark list, so a resume whose cached set grew in the meantime
   would otherwise be refused as a different sweep; the checkpoint
   already makes reruns cheap, and fresh rows still land in the store. *)
let with_result_cache ~result_cache ~checkpoint
    ~(unit_of : Spec92.benchmark -> Mcsim_obs.Manifest.t * string)
    (run_missing : Spec92.benchmark list -> (row, 'e) result list) benchmarks =
  match result_cache with
  | None -> run_missing benchmarks
  | Some dir ->
    let store = Result_store.open_ ~dir in
    let find b =
      if checkpoint <> None then None
      else
        let manifest, key = unit_of b in
        Option.map Result.ok (find_cached_row store ~manifest ~key)
    in
    let record b r =
      Result.iter
        (fun row ->
          let manifest, key = unit_of b in
          record_row store ~manifest ~key row)
        r;
      r
    in
    Pool.fill ~find
      ~run:(fun bs -> List.map2 record bs (run_missing bs))
      benchmarks

(* Table 2 as three cells per benchmark: the native binary on the single
   machine (the baseline) and each scheduler's binary on the clustered
   one, every binary compiled for the clustered machine's cluster count. *)
let matrix ?(max_instrs = 120_000) ?(seed = 1) ?(benchmarks = Spec92.all) ?sampling
    ?single_config ?dual_config () =
  let single = match single_config with Some c -> c | None -> Machine.single_cluster () in
  let dual = match dual_config with Some c -> c | None -> Machine.dual_cluster () in
  let binary scheduler =
    { Experiment.native with
      clusters = Mcsim_cluster.Assignment.num_clusters dual.Machine.assignment;
      scheduler }
  in
  let cells =
    { Experiment.key = "single"; binary = binary Pipeline.Sched_none; config = single }
    :: List.map
         (fun (name, s) -> { Experiment.key = "sched/" ^ name; binary = binary s; config = dual })
         Experiment.default_schedulers
  in
  (* The manifest pins the dual config, seed, engine, sampling policy and
     trace budget; everything else that changes the rows goes in here. *)
  let extra =
    [ ("single_config", Json.String (Mcsim_obs.Manifest.config_description single));
      ( "schedulers",
        Json.List (List.map (fun (n, _) -> Json.String n) Experiment.default_schedulers) );
      ("sampling_seed",
       match sampling with
       | Some p -> Json.Int p.Mcsim_sampling.Sampling.seed
       | None -> Json.Null) ]
  in
  let row prog = function
    | [ (_, (s : Machine.result)); (_, none); (_, local) ] ->
      let pct (r : Machine.result) =
        Mcsim_timing.Net_performance.speedup_pct ~single_cycles:s.Machine.cycles
          ~dual_cycles:r.Machine.cycles
      in
      { benchmark = prog.Mcsim_ir.Program.name;
        none_pct = pct none;
        local_pct = pct local;
        single_cycles = s.Machine.cycles;
        none_cycles = none.Machine.cycles;
        local_cycles = local.Machine.cycles;
        none_replays = none.Machine.replays;
        local_replays = local.Machine.replays }
    | _ -> assert false
  in
  { Experiment.kind = "experiment"; identity = (dual, extra);
    programs = List.map Spec92.program benchmarks; cells; seed; max_instrs; sampling; row }

let run_report ?jobs ?(max_instrs = 120_000) ?(seed = 1) ?(benchmarks = Spec92.all) ?engine
    ?sampling ?single_config ?dual_config ?retries ?backoff ?inject_fault ?checkpoint
    ?trace_cache ?result_cache () =
  let run_missing benchmarks =
    Experiment.run ?jobs ?engine ?trace_cache ?retries ?backoff ?inject_fault ?checkpoint
      (matrix ~max_instrs ~seed ~benchmarks ?sampling ?single_config ?dual_config ())
  in
  let unit_of =
    row_store_unit ?engine ?sampling ?single_config ?dual_config ~max_instrs ~seed
  in
  List.fold_left2
    (fun report b st ->
      match st with
      | Ok row -> { report with rows = report.rows @ [ row ] }
      | Error f ->
        { report with failed = report.failed @ [ (Spec92.name b, Pool.failure_message f) ] })
    { rows = []; failed = [] } benchmarks
    (with_result_cache ~result_cache ~checkpoint ~unit_of run_missing benchmarks)

let pct v = Printf.sprintf "%+.1f" v

let render rows =
  let header =
    [ "benchmark"; "none (measured)"; "none (paper)"; "local (measured)"; "local (paper)" ]
  in
  let body =
    List.map
      (fun r ->
        let p_none, p_local =
          match paper_of r.benchmark with Some (a, b) -> (pct a, pct b) | None -> ("-", "-")
        in
        [ r.benchmark; pct r.none_pct; p_none; pct r.local_pct; p_local ])
      rows
  in
  Mcsim_util.Text_table.render
    ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Right; Right |]
    (header :: body)
  ^ "positive = dual-cluster machine needs fewer cycles than the single-cluster machine\n"

let markdown rows =
  "| benchmark | none (measured) | none (paper) | local (measured) | local (paper) |\n\
   |---|---|---|---|---|\n"
  ^ String.concat ""
      (List.map
         (fun r ->
           let p_none, p_local =
             match paper_of r.benchmark with
             | Some (a, b) -> (Printf.sprintf "%.1f" a, Printf.sprintf "%.1f" b)
             | None -> ("", "")
           in
           Printf.sprintf "| %s | %+.1f | %s | %+.1f | %s |\n" r.benchmark r.none_pct p_none
             r.local_pct p_local)
         rows)

let shape_holds rows =
  let get name = List.find_opt (fun r -> r.benchmark = name) rows in
  let non_ora = List.filter (fun r -> r.benchmark <> "ora") rows in
  let claims = ref [] in
  let claim ok desc = claims := (ok, desc) :: !claims in
  claim
    (List.for_all (fun r -> r.local_pct > r.none_pct) non_ora)
    "the local scheduler improves every benchmark except ora";
  (match get "ora" with
  | Some ora -> claim (ora.local_pct < ora.none_pct) "the local scheduler degrades ora"
  | None -> ());
  claim
    (List.for_all (fun r -> r.none_pct < 0.0) rows)
    "every native binary is slower on the dual-cluster machine";
  claim
    (List.for_all (fun r -> r.local_pct > -50.0) rows)
    "worst-case local-scheduler slowdown is within 2x of the paper's 25%";
  (match (get "su2cor", get "tomcatv", get "ora") with
  | Some su, Some tv, Some ora ->
    claim
      (min su.none_pct tv.none_pct < ora.none_pct)
      "the vector codes (su2cor, tomcatv) suffer more than ora under 'none'"
  | _, _, _ -> ());
  List.rev !claims
