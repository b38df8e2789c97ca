module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Program = Mcsim_ir.Program
module Walker = Mcsim_trace.Walker
module Pool = Mcsim_util.Pool
module Sampling = Mcsim_sampling.Sampling
module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics

type binary = {
  clusters : int;
  scheduler : Pipeline.scheduler;
  unroll : int;
}

let native = { clusters = 2; scheduler = Pipeline.Sched_none; unroll = 1 }

type cell = {
  key : string;
  binary : binary;
  config : Machine.config;
}

let default_schedulers =
  [ ("none", Pipeline.Sched_none); ("local", Pipeline.default_local) ]

(* Cache identity of a scheduler, parameters included ([scheduler_name]
   alone would alias differently-tuned local/random schedulers). The
   local scheduler's trailing ":0" is the retired window parameter, kept
   so existing trace-store keys still hit. *)
let scheduler_ident = function
  | Pipeline.Sched_none -> "none"
  | Pipeline.Sched_local { imbalance_threshold } ->
    Printf.sprintf "local:%d:0" imbalance_threshold
  | Pipeline.Sched_round_robin -> "round_robin"
  | Pipeline.Sched_random s -> Printf.sprintf "random:%d" s

(* The target cluster count changes the compiled binary (partitioning
   and residue-class register assignment), hence the trace. Non-default
   counts get their own trace-store keys; the historical 2-cluster keys
   are unchanged. *)
let scheduler_ident_n ~clusters scheduler =
  if clusters = 2 then scheduler_ident scheduler
  else Printf.sprintf "%s@%dcl" (scheduler_ident scheduler) clusters

(* An unrolled binary is a different program, profiled on its own. *)
let trace_of ?trace_cache ?profile ~seed ~max_instrs prog b =
  let walk () =
    let prog, profile =
      if b.unroll = 1 then
        ( prog,
          match profile with
          | Some p -> Lazy.force p
          | None -> Walker.profile ~seed prog )
      else
        let unrolled = Mcsim_compiler.Unroll.unroll ~factor:b.unroll prog in
        (unrolled, Walker.profile ~seed unrolled)
    in
    let c = Pipeline.compile ~clusters:b.clusters ~profile ~scheduler:b.scheduler prog in
    Walker.trace_flat ~seed ~max_instrs c.Pipeline.mach
  in
  match trace_cache with
  | None -> walk ()
  | Some dir ->
    let scheduler =
      scheduler_ident_n ~clusters:b.clusters b.scheduler
      ^ if b.unroll = 1 then "" else Printf.sprintf "@x%d" b.unroll
    in
    let key = { Trace_store.benchmark = prog.Program.name; scheduler; seed; max_instrs } in
    fst (Trace_store.load_or_build (Trace_store.open_ ~dir) key walk)

type 'row matrix = {
  kind : string;
  identity : Machine.config * (string * Json.t) list;
  programs : Program.t list;
  cells : cell list;
  seed : int;
  max_instrs : int;
  sampling : Sampling.policy option;
  row : Program.t -> (cell * Machine.result) list -> 'row;
}

let run ?jobs ?engine ?trace_cache ?(retries = 0) ?backoff ?inject_fault ?checkpoint m =
  let { seed; max_instrs; sampling; cells; _ } = m in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let store =
    Option.map
      (fun dir ->
        let config, extra = m.identity in
        let manifest =
          Mcsim_obs.Manifest.make ?engine ~seed ?sampling
            ~benchmark:(String.concat "," (List.map (fun p -> p.Program.name) m.programs))
            ~trace_instrs:max_instrs config
        in
        Checkpoint.open_ ~dir ~kind:m.kind ~manifest ~extra ())
      checkpoint
  in
  let key (prog, _, cell) = prog.Program.name ^ "/" ^ cell.key in
  let find unit =
    Option.bind store (fun st ->
        Option.bind (Checkpoint.find st (key unit)) (fun d ->
            Option.bind (Json.member "result" d) Metrics.result_of_json))
  in
  (* One unit per (program x cell). A program's profile is shared by its
     units and walked only by the first whose trace misses the store;
     the lock keeps two domains from forcing it at once. *)
  let units =
    List.concat_map
      (fun prog ->
        let walked = lazy (Walker.profile ~seed prog) and lock = Mutex.create () in
        let profile () = Mutex.protect lock (fun () -> Lazy.force walked) in
        List.map (fun cell -> (prog, profile, cell)) cells)
      m.programs
  in
  (* Each unit compiles, walks and simulates independently, and records
     its result as soon as it finishes. *)
  let simulate ((prog, profile, cell) as unit) =
    let trace =
      trace_of ?trace_cache ~profile:(lazy (profile ())) ~seed ~max_instrs prog cell.binary
    in
    let r =
      match sampling with
      | None -> Machine.run_flat ?engine cell.config trace
      | Some policy ->
        Sampling.estimate (Sampling.run_flat ?engine ~policy cell.config trace)
    in
    Option.iter
      (fun st -> Checkpoint.record st ~key:(key unit) [ ("result", Metrics.result_json r) ])
      store;
    r
  in
  let outs =
    Array.of_list
      (Pool.fill
         ~find:(fun u -> Option.map (fun r -> Pool.Done r) (find u))
         ~run:(Pool.parallel_map_status ~retries ?backoff ?inject_fault ~jobs simulate)
         units)
  in
  let n = List.length cells in
  List.mapi
    (fun i prog ->
      let rec collect acc k = function
        | [] -> Ok (m.row prog (List.rev acc))
        | cell :: rest -> (
          match outs.((i * n) + k) with
          | Pool.Done r -> collect ((cell, r) :: acc) (k + 1) rest
          | Pool.Failed f -> Error f)
      in
      collect [] 0 cells)
    m.programs

let get_all results =
  List.map
    (function Ok x -> x | Error f -> Printexc.raise_with_backtrace f.Pool.exn f.Pool.backtrace)
    results
