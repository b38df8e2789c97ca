(* Tests for the CSV/Markdown exporters and the four-way and N-cluster
   machines. *)

module Report = Mcsim.Report
module Table2 = Mcsim.Table2
module Program = Mcsim_ir.Program

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let sample_rows =
  [ { Table2.benchmark = "gcc1"; none_pct = -15.25; local_pct = -10.5; single_cycles = 1000;
      none_cycles = 1152; local_cycles = 1105; none_replays = 0; local_replays = 2 } ]

let csv_escape () =
  check Alcotest.string "plain" "abc" (Report.csv_escape "abc");
  check Alcotest.string "comma" "\"a,b\"" (Report.csv_escape "a,b");
  check Alcotest.string "quote" "\"a\"\"b\"" (Report.csv_escape "a\"b");
  check Alcotest.string "newline" "\"a\nb\"" (Report.csv_escape "a\nb");
  check Alcotest.string "carriage return" "\"a\rb\"" (Report.csv_escape "a\rb");
  check Alcotest.string "crlf" "\"a\r\nb\"" (Report.csv_escape "a\r\nb");
  check Alcotest.string "empty" "" (Report.csv_escape "")

let table2_csv () =
  let csv = Report.table2_csv sample_rows in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check Alcotest.int "header + 1 row" 2 (List.length lines);
  check Alcotest.bool "header names" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 9 = "benchmark");
  let row = List.nth lines 1 in
  check Alcotest.bool "benchmark and paper value present" true
    (let has s =
       try ignore (Str.search_forward (Str.regexp_string s) row 0); true
       with Not_found -> false
     in
     has "gcc1" && has "-15.0" (* paper value for gcc1 *) && has "1152")

let table2_markdown () =
  let md = Report.table2_markdown sample_rows in
  check Alcotest.bool "markdown table shape" true
    (String.length md > 0 && md.[0] = '|'
    && String.split_on_char '\n' md |> List.length >= 3)

let ablation_csv () =
  let sweep =
    { Mcsim.Ablation.sweep_name = "test sweep"; benchmark = "x";
      points =
        [ { Mcsim.Ablation.label = "a, b"; dual_cycles = 10; speedup_pct = 1.5; replays = 0;
            dual_distributed = 3 } ] }
  in
  let csv = Report.ablation_csv sweep in
  check Alcotest.bool "quoted label" true
    (try ignore (Str.search_forward (Str.regexp_string "\"a, b\"") csv 0); true
     with Not_found -> false)

let four_way_configs_valid () =
  let four_way n = Mcsim_cluster.Machine.config_for_clusters ~width:4 n in
  Mcsim_cluster.Machine.validate_config (four_way 1);
  Mcsim_cluster.Machine.validate_config (four_way 2);
  let l = (four_way 2).Mcsim_cluster.Machine.issue_limits in
  check Alcotest.int "2-issue per cluster" 2 l.Mcsim_isa.Issue_rules.total

let four_way_machines_run () =
  let prog = Mcsim_workload.Spec92.program Mcsim_workload.Spec92.Gcc1 in
  let profile = Mcsim_trace.Walker.profile prog in
  let c =
    Mcsim_compiler.Pipeline.compile ~profile ~scheduler:Mcsim_compiler.Pipeline.Sched_none prog
  in
  let trace = Mcsim_trace.Walker.trace_flat ~max_instrs:5_000 c.Mcsim_compiler.Pipeline.mach in
  let four_way n = Mcsim_cluster.Machine.config_for_clusters ~width:4 n in
  let s4 = Mcsim_cluster.Machine.run_flat (four_way 1) trace in
  let d22 = Mcsim_cluster.Machine.run_flat (four_way 2) trace in
  let s8 = Mcsim_cluster.Machine.run_flat (Mcsim_cluster.Machine.single_cluster ()) trace in
  check Alcotest.int "4-way retires" 5_000 s4.Mcsim_cluster.Machine.retired;
  check Alcotest.int "2x2 retires" 5_000 d22.Mcsim_cluster.Machine.retired;
  check Alcotest.bool "narrower machine is slower" true
    (s4.Mcsim_cluster.Machine.cycles > s8.Mcsim_cluster.Machine.cycles)

let cluster_count_runs () =
  let rows =
    Mcsim.Cluster_count.run ~max_instrs:6_000 ~benchmarks:[ Mcsim_workload.Spec92.Gcc1 ] ()
  in
  match rows with
  | [ r ] ->
    let cell n t =
      match
        Mcsim.Cluster_count.find_cell r ~clusters:n ~topology:t
      with
      | Some c -> c
      | None -> Alcotest.fail (Printf.sprintf "missing cell %d" n)
    in
    let p2p = Mcsim_cluster.Interconnect.Point_to_point in
    check Alcotest.int "full matrix"
      (List.length Mcsim.Cluster_count.matrix_points)
      (List.length r.Mcsim.Cluster_count.cells);
    check (Alcotest.float 1e-9) "baseline is 0%" 0.0
      (cell 1 p2p).Mcsim.Cluster_count.cycles_pct;
    check Alcotest.bool "partitioning costs cycles" true
      ((cell 2 p2p).Mcsim.Cluster_count.cycles_pct < 0.0
      && (cell 4 p2p).Mcsim.Cluster_count.cycles_pct < 0.0);
    check Alcotest.bool "more clusters, more multi-distribution" true
      ((cell 4 p2p).Mcsim.Cluster_count.multi_fraction
      > (cell 2 p2p).Mcsim.Cluster_count.multi_fraction);
    check Alcotest.bool "longer ring hops cost cycles at 4 clusters" true
      ((cell 4 Mcsim_cluster.Interconnect.Ring).Mcsim.Cluster_count.cycles
      >= (cell 4 p2p).Mcsim.Cluster_count.cycles);
    check Alcotest.bool "render works" true
      (String.length (Mcsim.Cluster_count.render rows) > 50)
  | _ -> Alcotest.fail "one row expected"

let quad_compile_checks () =
  (* The allocator respects modulo-4 residue classes. *)
  let prog = Mcsim_workload.Spec92.program Mcsim_workload.Spec92.Compress in
  let profile = Mcsim_trace.Walker.profile prog in
  let c =
    Mcsim_compiler.Pipeline.compile ~clusters:4 ~profile
      ~scheduler:Mcsim_compiler.Pipeline.default_local prog
  in
  Mcsim_compiler.Regalloc.check c.Mcsim_compiler.Pipeline.alloc;
  check Alcotest.int "partition targets four clusters" 4
    c.Mcsim_compiler.Pipeline.alloc.Mcsim_compiler.Regalloc.partition
      .Mcsim_compiler.Partition.clusters

let suite =
  ( "report+extra",
    [ case "csv escaping" csv_escape;
      case "table2 csv" table2_csv;
      case "table2 markdown" table2_markdown;
      case "ablation csv" ablation_csv;
      case "four-way configs valid" four_way_configs_valid;
      case "four-way machines run" four_way_machines_run;
      case "cluster-count experiment" cluster_count_runs;
      case "quad-cluster compilation checks" quad_compile_checks ] )
