module Machine = Mcsim_cluster.Machine
module Steering = Mcsim_cluster.Steering
module Interconnect = Mcsim_cluster.Interconnect
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92

type cell = {
  scheduler : string;
  steering : Steering.policy;
  clusters : int;
  cycles : int;
  ipc : float;
  multi_fraction : float;
  vs_static_pct : float;
}

type row = {
  benchmark : string;
  cells : cell list;
}

let cluster_counts = [ 2; 4; 8 ]

(* The compile-time rivals: no partitioning effort at all (pure hardware
   steering) and the paper's local scheduler (hardware second-guessing a
   static partition). *)
let schedulers = [ Pipeline.Sched_none; Pipeline.default_local ]

(* One cell per (scheduler, cluster count, steering policy); the static
   policy is every (scheduler, count)'s baseline, so it is always
   included even though it adds no new machine behavior. *)
let matrix_points =
  List.concat_map
    (fun sched ->
      List.concat_map
        (fun n -> List.map (fun pol -> (sched, n, pol)) Steering.all)
        cluster_counts)
    schedulers

module Json = Mcsim_obs.Json

let config_for ~topology ~steering n =
  { (Machine.config_for_clusters ~topology n) with Machine.steering }

let matrix ?(max_instrs = 60_000) ?(seed = 1) ?(benchmarks = Spec92.all)
    ?(topology = Interconnect.Point_to_point) () =
  let extra =
    [ ("cluster_counts", Json.List (List.map (fun c -> Json.Int c) cluster_counts));
      ( "schedulers",
        Json.List
          (List.map (fun s -> Json.String (Pipeline.scheduler_name s)) schedulers) );
      ( "steerings",
        Json.List
          (List.map (fun p -> Json.String (Steering.to_string p)) Steering.all) ) ]
  in
  let cells =
    List.map
      (fun (scheduler, clusters, pol) ->
        { Experiment.key =
            Printf.sprintf "%s/%d/%s" (Pipeline.scheduler_name scheduler) clusters
              (Steering.to_string pol);
          binary = { Experiment.native with clusters; scheduler };
          config = config_for ~topology ~steering:pol clusters })
      matrix_points
  in
  (* Each cell is scored against the static cell of the same binary. *)
  let row prog results =
    let static_cycles binary =
      match
        List.find_opt
          (fun ((c : Experiment.cell), _) ->
            c.binary = binary && c.config.Machine.steering = Steering.Static)
          results
      with
      | Some (_, (r : Machine.result)) -> r.Machine.cycles
      | None -> assert false
    in
    { benchmark = prog.Mcsim_ir.Program.name;
      cells =
        List.map
          (fun ((c : Experiment.cell), (r : Machine.result)) ->
            { scheduler = Pipeline.scheduler_name c.binary.scheduler;
              steering = c.config.Machine.steering;
              clusters = c.binary.clusters;
              cycles = r.Machine.cycles;
              ipc = r.Machine.ipc;
              multi_fraction =
                Mcsim_util.Stats.ratio r.Machine.dual_distributed r.Machine.retired;
              vs_static_pct =
                100.0
                -. (100.0 *. float_of_int r.Machine.cycles
                    /. float_of_int (static_cycles c.binary)) })
          results }
  in
  { Experiment.kind = "steer";
    identity = (config_for ~topology ~steering:Steering.Static 2, extra);
    programs = List.map Spec92.program benchmarks; cells; seed; max_instrs; sampling = None;
    row }

let find_cell row ~scheduler ~clusters ~steering =
  List.find_opt
    (fun c -> c.scheduler = scheduler && c.clusters = clusters && c.steering = steering)
    row.cells

let scheduler_names = List.map Pipeline.scheduler_name schedulers

let render rows =
  let policies = Steering.all in
  let header =
    "benchmark" :: "sched" :: "clusters" :: "static cyc"
    :: List.filter_map
         (fun p ->
           if p = Steering.Static then None else Some (Steering.to_string p ^ " %"))
         policies
  in
  let body =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun sched ->
            List.map
              (fun n ->
                let static =
                  match find_cell r ~scheduler:sched ~clusters:n ~steering:Steering.Static with
                  | Some c -> string_of_int c.cycles
                  | None -> "-"
                in
                r.benchmark :: sched :: string_of_int n :: static
                :: List.filter_map
                     (fun p ->
                       if p = Steering.Static then None
                       else
                         Some
                           (match find_cell r ~scheduler:sched ~clusters:n ~steering:p with
                           | Some c -> Printf.sprintf "%+.1f" c.vs_static_pct
                           | None -> "-"))
                     policies)
              cluster_counts)
          scheduler_names)
      rows
  in
  let aligns =
    Array.of_list
      (Mcsim_util.Text_table.Left :: Left :: Right :: Right
      :: List.filter_map
           (fun p -> if p = Steering.Static then None else Some Mcsim_util.Text_table.Right)
           policies)
  in
  Mcsim_util.Text_table.render ~aligns (header :: body)
  ^ "cycle %% vs static steering under the same compile-time scheduler and cluster\n\
     count (positive = the dynamic policy is faster); 'none' rows steer a program\n\
     compiled with no partitioning effort, 'local' rows second-guess the paper's\n\
     static local scheduler at dispatch\n"

(* Every cell column once, in the JSON order: its name, JSON value and
   CSV text. *)
let columns (c : cell) =
  [ ("scheduler", (Json.String c.scheduler, c.scheduler));
    (let s = Steering.to_string c.steering in
     ("steering", (Json.String s, s)));
    ("clusters", (Json.Int c.clusters, string_of_int c.clusters));
    ("cycles", (Json.Int c.cycles, string_of_int c.cycles));
    ("ipc", (Json.Float c.ipc, Printf.sprintf "%.4f" c.ipc));
    ("multi_fraction", (Json.Float c.multi_fraction, Printf.sprintf "%.4f" c.multi_fraction));
    ("vs_static_pct", (Json.Float c.vs_static_pct, Printf.sprintf "%.2f" c.vs_static_pct))
  ]

let cell_json c = Json.Obj (List.map (fun (name, (j, _)) -> (name, j)) (columns c))

(* The CSV names the same columns, with clusters before steering. *)
let csv rows =
  let header =
    [ "scheduler"; "clusters"; "steering"; "cycles"; "ipc"; "multi_fraction"; "vs_static_pct" ]
  in
  Mcsim_util.Text_table.csv
    (("benchmark" :: header)
    :: List.concat_map
         (fun r ->
           List.map
             (fun c ->
               r.benchmark :: List.map (fun h -> snd (List.assoc h (columns c))) header)
             r.cells)
         rows)

let rows_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("benchmark", Json.String r.benchmark);
             ("cells", Json.List (List.map cell_json r.cells)) ])
       rows)
