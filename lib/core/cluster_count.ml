module Machine = Mcsim_cluster.Machine
module Interconnect = Mcsim_cluster.Interconnect
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Palacharla = Mcsim_timing.Palacharla
module Net = Mcsim_timing.Net_performance

type cell = {
  clusters : int;
  topology : Interconnect.topology;
  cycles : int;
  cycles_pct : float;
  multi_fraction : float;
  net_018_pct : float;
}

type row = {
  benchmark : string;
  single_cycles : int;
  cells : cell list;
}

let cluster_counts = [ 1; 2; 4; 8 ]

(* One cell per (cluster count, topology); the 1-cluster machine has no
   interconnect, so it appears once, as the point-to-point baseline. *)
let matrix_points =
  List.concat_map
    (fun n ->
      if n = 1 then [ (1, Interconnect.Point_to_point) ]
      else List.map (fun t -> (n, t)) Interconnect.all)
    cluster_counts

module Json = Mcsim_obs.Json

let matrix ?(max_instrs = 60_000) ?(seed = 1) ?(benchmarks = Spec92.all) () =
  let extra =
    [ ("cluster_counts", Json.List (List.map (fun c -> Json.Int c) cluster_counts));
      ( "topologies",
        Json.List
          (List.map (fun t -> Json.String (Interconnect.to_string t)) Interconnect.all)
      ) ]
  in
  let cells =
    List.map
      (fun (clusters, topology) ->
        { Experiment.key = Printf.sprintf "%d/%s" clusters (Interconnect.to_string topology);
          binary =
            { Experiment.native with
              clusters;
              scheduler = (if clusters = 1 then Pipeline.Sched_none else Pipeline.default_local) };
          config = Machine.config_for_clusters ~topology clusters })
      matrix_points
  in
  let row prog results =
    let single = (snd (List.hd results)).Machine.cycles in
    { benchmark = prog.Mcsim_ir.Program.name;
      single_cycles = single;
      cells =
        List.map
          (fun ((cell : Experiment.cell), (r : Machine.result)) ->
            { clusters = cell.binary.clusters;
              topology = cell.config.topology;
              cycles = r.Machine.cycles;
              cycles_pct =
                100.0 -. (100.0 *. float_of_int r.Machine.cycles /. float_of_int single);
              multi_fraction =
                Mcsim_util.Stats.ratio r.Machine.dual_distributed r.Machine.retired;
              net_018_pct =
                Net.net_speedup_pct ~single_cycles:single ~cycles:r.Machine.cycles
                  ~feature:Palacharla.F0_18 cell.config })
          results }
  in
  { Experiment.kind = "clusters"; identity = (Machine.config_for_clusters 1, extra);
    programs = List.map Spec92.program benchmarks; cells; seed; max_instrs; sampling = None;
    row }

let find_cell row ~clusters ~topology =
  List.find_opt (fun c -> c.clusters = clusters && c.topology = topology) row.cells

let render rows =
  let multi_counts = List.filter (fun n -> n > 1) cluster_counts in
  let header =
    "benchmark" :: "topology" :: "1-cl cyc"
    :: List.map (fun n -> Printf.sprintf "%d-cl %% (net)" n) multi_counts
  in
  let body =
    List.concat_map
      (fun r ->
        List.map
          (fun t ->
            r.benchmark :: Interconnect.to_string t
            :: string_of_int r.single_cycles
            :: List.map
                 (fun n ->
                   match find_cell r ~clusters:n ~topology:t with
                   | Some c -> Printf.sprintf "%+.1f (%+.1f)" c.cycles_pct c.net_018_pct
                   | None -> "-")
                 multi_counts)
          Interconnect.all)
      rows
  in
  let aligns =
    Array.of_list
      (Mcsim_util.Text_table.Left :: Left :: Right
      :: List.map (fun _ -> Mcsim_util.Text_table.Right) multi_counts)
  in
  Mcsim_util.Text_table.render ~aligns (header :: body)
  ^ "cycle %% vs the 8-issue monolith (negative = more cycles); net folds in the\n\
     Palacharla 0.18um clock of each cluster's window capped by one interconnect\n\
     hop (point-to-point wiring stops scaling, ring/crossbar pay cycles instead)\n"

let cell_json (c : cell) =
  Json.Obj
    [ ("clusters", Json.Int c.clusters);
      ("topology", Json.String (Interconnect.to_string c.topology));
      ("cycles", Json.Int c.cycles);
      ("cycles_pct", Json.Float c.cycles_pct);
      ("multi_fraction", Json.Float c.multi_fraction);
      ("net_018_pct", Json.Float c.net_018_pct) ]

let rows_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("benchmark", Json.String r.benchmark);
             ("single_cycles", Json.Int r.single_cycles);
             ("cells", Json.List (List.map cell_json r.cells)) ])
       rows)
