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

let run ?jobs ?(max_instrs = 60_000) ?(seed = 1) ?(benchmarks = Spec92.all)
    ?(topology = Interconnect.Point_to_point) ?retries ?backoff ?inject_fault ?checkpoint
    () =
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
  let results =
    Experiment.matrix ?jobs ?retries ?backoff ?inject_fault ?checkpoint ~kind:"steer"
      ~identity:(config_for ~topology ~steering:Steering.Static 2, extra)
      ~max_instrs ~seed (List.map Spec92.program benchmarks) cells
    |> Experiment.get_all
  in
  List.map2
    (fun b results ->
      let paired = List.combine matrix_points results in
      let static_cycles sched clusters =
        match
          List.find_opt
            (fun ((s, n, pol), _) -> s = sched && n = clusters && pol = Steering.Static)
            paired
        with
        | Some (_, (r : Machine.result)) -> r.Machine.cycles
        | None -> assert false
      in
      { benchmark = Spec92.name b;
        cells =
          List.map
            (fun ((sched, clusters, pol), (r : Machine.result)) ->
              let base = static_cycles sched clusters in
              { scheduler = Pipeline.scheduler_name sched;
                steering = pol;
                clusters;
                cycles = r.Machine.cycles;
                ipc = r.Machine.ipc;
                multi_fraction =
                  Mcsim_util.Stats.ratio r.Machine.dual_distributed r.Machine.retired;
                vs_static_pct =
                  100.0 -. (100.0 *. float_of_int r.Machine.cycles /. float_of_int base) })
            paired })
    benchmarks results

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

let csv rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "benchmark,scheduler,clusters,steering,cycles,ipc,multi_fraction,vs_static_pct\n";
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "%s,%s,%d,%s,%d,%.4f,%.4f,%.2f\n" r.benchmark c.scheduler
               c.clusters (Steering.to_string c.steering) c.cycles c.ipc c.multi_fraction
               c.vs_static_pct))
        r.cells)
    rows;
  Buffer.contents b

let cell_json (c : cell) =
  Json.Obj
    [ ("scheduler", Json.String c.scheduler);
      ("steering", Json.String (Steering.to_string c.steering));
      ("clusters", Json.Int c.clusters);
      ("cycles", Json.Int c.cycles);
      ("ipc", Json.Float c.ipc);
      ("multi_fraction", Json.Float c.multi_fraction);
      ("vs_static_pct", Json.Float c.vs_static_pct) ]

let rows_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("benchmark", Json.String r.benchmark);
             ("cells", Json.List (List.map cell_json r.cells)) ])
       rows)
