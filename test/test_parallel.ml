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
  let run jobs = Kit.rows ~jobs (Mcsim.Table2.matrix ~max_instrs:6_000 ()) in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      check Alcotest.int (Printf.sprintf "row count, jobs=%d" jobs)
        (List.length serial) (List.length par);
      List.iter2
        (fun a b ->
          if not (row_eq a b) then
            Alcotest.failf "jobs=%d changed row %s" jobs a.Mcsim.Table2.benchmark)
        serial par)
    [ 2; 4; 8 ]

let experiment_jobs_invariant () =
  let module E = Mcsim.Experiment in
  let cells =
    { E.key = "single"; binary = E.native; config = Mcsim_cluster.Machine.single_cluster () }
    :: List.map
         (fun (key, scheduler) ->
           { E.key;
             binary = { E.native with scheduler };
             config = Mcsim_cluster.Machine.dual_cluster () })
         E.default_schedulers
  in
  let run jobs =
    E.run ~jobs
      { E.kind = "test"; identity = (Mcsim_cluster.Machine.dual_cluster (), []);
        programs = [ Spec92.program Spec92.Compress; Spec92.program Spec92.Ora ]; cells;
        seed = 1; max_instrs = 5_000; sampling = None; row = (fun _ rs -> List.map snd rs) }
    |> E.get_all
  in
  let serial = run 1 and par = run 4 in
  check Alcotest.int "programs" (List.length serial) (List.length par);
  List.iter2
    (List.iter2 (fun (a : Mcsim_cluster.Machine.result) b ->
         check Alcotest.int "cycles" a.Mcsim_cluster.Machine.cycles
           b.Mcsim_cluster.Machine.cycles;
         check Alcotest.int "replays" a.Mcsim_cluster.Machine.replays
           b.Mcsim_cluster.Machine.replays;
         check Alcotest.bool "whole result" true (a = b)))
    serial par

let ablation_jobs_invariant () =
  let bench = Spec92.Compress in
  let run jobs which =
    List.hd (Kit.rows ~jobs (Mcsim.Ablation.matrix ~max_instrs:4_000 which bench))
  in
  check Alcotest.bool "jobs=2 sweep equals jobs=1 sweep" true
    (run 1 Mcsim.Ablation.Buffers = run 2 Mcsim.Ablation.Buffers);
  check Alcotest.int "unrolling has all points" 3
    (List.length (run 2 Mcsim.Ablation.Unroll).Mcsim.Ablation.points)

let suite =
  ( "parallel",
    [ case "parallel_map: empty and singleton" pool_empty;
      case "parallel_map: preserves order" pool_order;
      case "parallel_map: jobs=1 degenerates to map" pool_serial_degenerate;
      case "parallel_map: rejects jobs=0" pool_invalid_jobs;
      case "parallel_map: propagates the first exception" pool_exception_propagates;
      Kit.qcheck pool_matches_list_map;
      Kit.qcheck pool_fill_property;
      case "Table2.matrix is jobs-invariant" table2_jobs_invariant;
      case "Experiment.matrix is jobs-invariant" experiment_jobs_invariant;
      case "Ablation sweeps are jobs-invariant" ablation_jobs_invariant ] )
