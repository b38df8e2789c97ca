(* Tests for Mcsim_util.Pool and the determinism guarantee of the
   parallel experiment fan-out: results must be bit-for-bit identical
   for every jobs value. *)

module Pool = Mcsim_util.Pool
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ---------------------------- pool --------------------------------- *)

let pool_empty () =
  check (Alcotest.list Alcotest.int) "empty" [] (Pool.parallel_map ~jobs:4 (fun x -> x) []);
  check (Alcotest.list Alcotest.int) "singleton" [ 9 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x * 3) [ 3 ])

let pool_order () =
  let xs = List.init 100 (fun i -> i) in
  check (Alcotest.list Alcotest.int) "order preserved"
    (List.map (fun x -> x * x) xs)
    (Pool.parallel_map ~jobs:7 (fun x -> x * x) xs)

let pool_serial_degenerate () =
  let xs = [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "jobs=1 is List.map" (List.map succ xs)
    (Pool.parallel_map ~jobs:1 succ xs)

let pool_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.parallel_map: jobs < 1") (fun () ->
      ignore (Pool.parallel_map ~jobs:0 succ [ 1 ]))

exception Boom of int

let pool_exception_propagates () =
  (* The worker exception must surface on the caller, and it must be the
     one from the smallest failing index. *)
  match
    Pool.parallel_map ~jobs:4
      (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
      (List.init 20 (fun i -> i + 1))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> check Alcotest.int "smallest failing index wins" 3 x

let pool_matches_list_map =
  QCheck.Test.make ~name:"parallel_map agrees with List.map for any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (jobs, xs) ->
      Pool.parallel_map ~jobs (fun x -> (x * 31) lxor 5) xs
      = List.map (fun x -> (x * 31) lxor 5) xs)

(* The cached fan-out, over random hit/miss patterns: values come back
   in input order, the runner is called once with exactly the misses in
   input order (not at all when nothing misses), and no cached value
   reaches it. *)
let pool_fill_property =
  QCheck.Test.make ~name:"fill: input order, and the runner sees exactly the misses"
    ~count:200
    QCheck.(pair (int_range 1 4) (list (pair small_int bool)))
    (fun (jobs, items) ->
      let xs = List.mapi (fun i (v, hit) -> (i, v, hit)) items in
      let calls = ref [] in
      let out =
        Pool.fill
          ~find:(fun (_, v, hit) -> if hit then Some (`Cached v) else None)
          ~run:(fun misses ->
            calls := misses :: !calls;
            Pool.parallel_map ~jobs (fun (_, v, _) -> `Fresh (v * 7)) misses)
          xs
      in
      let misses = List.filter (fun (_, _, hit) -> not hit) xs in
      out = List.map (fun (_, v, hit) -> if hit then `Cached v else `Fresh (v * 7)) xs
      && !calls = (if misses = [] then [] else [ misses ])
      && List.for_all (fun (_, _, hit) -> not hit) (List.concat !calls))

(* ----------------------- fan-out determinism ------------------------ *)

let row_eq (a : Mcsim.Table2.row) (b : Mcsim.Table2.row) =
  a.Mcsim.Table2.benchmark = b.Mcsim.Table2.benchmark
  && a.Mcsim.Table2.none_pct = b.Mcsim.Table2.none_pct
  && a.Mcsim.Table2.local_pct = b.Mcsim.Table2.local_pct
  && a.Mcsim.Table2.single_cycles = b.Mcsim.Table2.single_cycles
  && a.Mcsim.Table2.none_cycles = b.Mcsim.Table2.none_cycles
  && a.Mcsim.Table2.local_cycles = b.Mcsim.Table2.local_cycles
  && a.Mcsim.Table2.none_replays = b.Mcsim.Table2.none_replays
  && a.Mcsim.Table2.local_replays = b.Mcsim.Table2.local_replays

let table2_jobs_invariant () =
  (* Short traces keep this affordable; every benchmark and both machine
     configs are still exercised. *)
  let serial = Mcsim.Table2.run ~jobs:1 ~max_instrs:6_000 () in
  List.iter
    (fun jobs ->
      let par = Mcsim.Table2.run ~jobs ~max_instrs:6_000 () in
      check Alcotest.int (Printf.sprintf "row count, jobs=%d" jobs)
        (List.length serial) (List.length par);
      List.iter2
        (fun a b ->
          if not (row_eq a b) then
            Alcotest.failf "jobs=%d changed row %s" jobs a.Mcsim.Table2.benchmark)
        serial par)
    [ 2; 4; 8 ]

let experiment_jobs_invariant () =
  let run jobs =
    Mcsim.Experiment.run_many ~jobs ~max_instrs:5_000
      [ Spec92.program Spec92.Compress; Spec92.program Spec92.Ora ]
  in
  let serial = run 1 and par = run 4 in
  List.iter2
    (fun (a : Mcsim.Experiment.comparison) (b : Mcsim.Experiment.comparison) ->
      check Alcotest.string "benchmark" a.Mcsim.Experiment.benchmark
        b.Mcsim.Experiment.benchmark;
      check Alcotest.int "trace length" a.Mcsim.Experiment.trace_instrs
        b.Mcsim.Experiment.trace_instrs;
      check Alcotest.int "single cycles"
        a.Mcsim.Experiment.single.Mcsim_cluster.Machine.cycles
        b.Mcsim.Experiment.single.Mcsim_cluster.Machine.cycles;
      List.iter2
        (fun (ra : Mcsim.Experiment.run) (rb : Mcsim.Experiment.run) ->
          check Alcotest.string "scheduler" ra.Mcsim.Experiment.scheduler
            rb.Mcsim.Experiment.scheduler;
          check Alcotest.int "dual cycles"
            ra.Mcsim.Experiment.dual.Mcsim_cluster.Machine.cycles
            rb.Mcsim.Experiment.dual.Mcsim_cluster.Machine.cycles;
          check Alcotest.int "replays"
            ra.Mcsim.Experiment.dual.Mcsim_cluster.Machine.replays
            rb.Mcsim.Experiment.dual.Mcsim_cluster.Machine.replays;
          check (Alcotest.float 0.0) "speedup" ra.Mcsim.Experiment.speedup_pct
            rb.Mcsim.Experiment.speedup_pct;
          check Alcotest.int "spills" ra.Mcsim.Experiment.spills rb.Mcsim.Experiment.spills)
        a.Mcsim.Experiment.runs b.Mcsim.Experiment.runs)
    serial par

let ablation_ctx_reuse () =
  (* A shared context must give the same sweep as a fresh one. *)
  let bench = Spec92.Compress in
  let fresh = Mcsim.Ablation.transfer_buffers ~jobs:1 ~max_instrs:4_000 bench in
  let ctx = Mcsim.Ablation.make_ctx ~max_instrs:4_000 bench in
  let shared = Mcsim.Ablation.transfer_buffers ~jobs:2 ~ctx bench in
  let unroll = Mcsim.Ablation.unrolling ~jobs:2 ~ctx bench in
  check Alcotest.bool "ctx sweep equals fresh sweep" true (fresh = shared);
  check Alcotest.int "unrolling has all points" 3
    (List.length unroll.Mcsim.Ablation.points)

let suite =
  ( "parallel",
    [ case "parallel_map: empty and singleton" pool_empty;
      case "parallel_map: preserves order" pool_order;
      case "parallel_map: jobs=1 degenerates to map" pool_serial_degenerate;
      case "parallel_map: rejects jobs=0" pool_invalid_jobs;
      case "parallel_map: propagates the first exception" pool_exception_propagates;
      QCheck_alcotest.to_alcotest pool_matches_list_map;
      QCheck_alcotest.to_alcotest pool_fill_property;
      case "Table2.run is jobs-invariant" table2_jobs_invariant;
      case "Experiment.run_many is jobs-invariant" experiment_jobs_invariant;
      case "Ablation context reuse is transparent" ablation_ctx_reuse ] )
