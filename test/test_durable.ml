(* Tests for the durability layer: Pool retry/backoff/fault injection,
   the Checkpoint store, the Metrics decoders it relies on, and
   checkpoint/resume equivalence for the experiment sweeps. *)

module Pool = Mcsim_util.Pool
module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics
module E = Mcsim.Experiment

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let temp_dir () = Filename.temp_dir "mcsim-test-durable" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let contains_sub ~needle hay =
  let n = String.length needle and h = String.length hay in
  n = 0
  ||
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* ---------------------------- backoff ------------------------------ *)

let backoff_shape () =
  check (Alcotest.float 1e-12) "first delay" 0.005 (Pool.default_backoff 1);
  check (Alcotest.float 1e-12) "doubles" 0.01 (Pool.default_backoff 2);
  check (Alcotest.float 1e-12) "doubles again" 0.02 (Pool.default_backoff 3);
  check (Alcotest.float 1e-12) "caps at 0.25" 0.25 (Pool.default_backoff 9);
  check (Alcotest.float 1e-12) "cap is stable" 0.25 (Pool.default_backoff 20);
  (* The doubling must not wrap: a huge retry budget keeps backing off. *)
  List.iter
    (fun k ->
      check (Alcotest.float 1e-12) (Printf.sprintf "cap at attempt %d" k) 0.25
        (Pool.default_backoff k))
    [ 63; 64; 65; 1000 ];
  check (Alcotest.float 0.0) "no_backoff is zero" 0.0 (Pool.no_backoff 5);
  (* Pure: the same attempt always gets the same delay. *)
  List.iter
    (fun k ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "attempt %d deterministic" k)
        (Pool.default_backoff k) (Pool.default_backoff k))
    [ 1; 2; 3; 7 ]

let seeded_faults_deterministic () =
  for job = 0 to 20 do
    for attempt = 0 to 3 do
      check Alcotest.bool "replayable"
        (Pool.seeded_faults ~seed:11 ~rate:0.5 ~job ~attempt)
        (Pool.seeded_faults ~seed:11 ~rate:0.5 ~job ~attempt)
    done
  done;
  check Alcotest.bool "rate 0 never fires" false
    (List.exists
       (fun job -> Pool.seeded_faults ~seed:3 ~rate:0.0 ~job ~attempt:0)
       (List.init 50 Fun.id));
  check Alcotest.bool "rate 1 always fires" true
    (List.for_all
       (fun job -> Pool.seeded_faults ~seed:3 ~rate:1.0 ~job ~attempt:0)
       (List.init 50 Fun.id))

let seeded_faults_rate () =
  let n = 2000 in
  let hits = ref 0 in
  for job = 0 to n - 1 do
    if Pool.seeded_faults ~seed:7 ~rate:0.4 ~job ~attempt:0 then incr hits
  done;
  let observed = float_of_int !hits /. float_of_int n in
  if observed < 0.3 || observed > 0.5 then
    Alcotest.failf "rate 0.4 produced %.3f over %d draws" observed n

(* ----------------------------- retry ------------------------------- *)

(* Fails the first [k] attempts of every job, then succeeds. *)
let transient k ~job:_ ~attempt = attempt < k

let retry_succeeds () =
  let out =
    Pool.parallel_map ~retries:2 ~backoff:Pool.no_backoff ~inject_fault:(transient 2)
      ~jobs:2
      (fun x -> x * 10)
      [ 1; 2; 3 ]
  in
  check (Alcotest.list Alcotest.int) "all jobs recover" [ 10; 20; 30 ] out

let retry_exhaustion () =
  match
    Pool.parallel_map_status ~retries:2 ~backoff:Pool.no_backoff
      ~inject_fault:(fun ~job ~attempt:_ -> job = 1)
      ~jobs:2 succ [ 5; 6; 7 ]
  with
  | [ Pool.Done 6; Pool.Failed f; Pool.Done 8 ] ->
    check Alcotest.int "attempts = retries + 1" 3 f.Pool.attempts;
    (match f.Pool.exn with
    | Pool.Injected_fault { job = 1; attempt = 2 } -> ()
    | e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
    let msg = Pool.failure_message f in
    check Alcotest.bool "message names the attempt count" true
      (String.length msg > 0
      && String.sub msg 0 (String.length "failed after 3 attempt(s)")
         = "failed after 3 attempt(s)");
    check Alcotest.bool "message is one line" false (String.contains msg '\n')
  | _ -> Alcotest.fail "expected Done/Failed/Done"

let retry_zero_raises () =
  match
    Pool.parallel_map ~jobs:1
      ~inject_fault:(fun ~job ~attempt:_ -> job = 0)
      succ [ 1; 2 ]
  with
  | _ -> Alcotest.fail "expected Injected_fault"
  | exception Pool.Injected_fault { job = 0; attempt = 0 } -> ()

let status_does_not_stop () =
  (* parallel_map_status runs every job even after a failure. *)
  match
    Pool.parallel_map_status ~jobs:1
      ~inject_fault:(fun ~job ~attempt:_ -> job = 0)
      succ [ 1; 2; 3 ]
  with
  | [ Pool.Failed _; Pool.Done 3; Pool.Done 4 ] -> ()
  | _ -> Alcotest.fail "expected Failed/Done/Done"

(* --------------------------- decoders ------------------------------ *)

let small_result () =
  let prog = Spec92.program Spec92.Compress in
  let profile = Mcsim_trace.Walker.profile prog in
  let c =
    Mcsim_compiler.Pipeline.compile ~profile
      ~scheduler:Mcsim_compiler.Pipeline.Sched_none prog
  in
  let trace =
    Mcsim_trace.Walker.trace_flat ~max_instrs:3_000 c.Mcsim_compiler.Pipeline.mach
  in
  Machine.run_flat (Machine.dual_cluster ()) trace

let result_roundtrip () =
  let r = small_result () in
  match Metrics.result_of_json (Metrics.result_json r) with
  | None -> Alcotest.fail "result_of_json failed on result_json output"
  | Some d ->
    check Alcotest.int "cycles" r.Machine.cycles d.Machine.cycles;
    check Alcotest.int "retired" r.Machine.retired d.Machine.retired;
    check (Alcotest.float 0.0) "ipc" r.Machine.ipc d.Machine.ipc;
    check Alcotest.int "single_distributed" r.Machine.single_distributed
      d.Machine.single_distributed;
    check Alcotest.int "dual_distributed" r.Machine.dual_distributed
      d.Machine.dual_distributed;
    check Alcotest.int "replays" r.Machine.replays d.Machine.replays;
    check (Alcotest.float 0.0) "branch_accuracy" r.Machine.branch_accuracy
      d.Machine.branch_accuracy;
    check (Alcotest.float 0.0) "icache" r.Machine.icache_miss_rate
      d.Machine.icache_miss_rate;
    check (Alcotest.float 0.0) "dcache" r.Machine.dcache_miss_rate
      d.Machine.dcache_miss_rate;
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      "counters" r.Machine.counters d.Machine.counters;
    (* The decoded lookup snapshot answers exactly like the alist. *)
    List.iter
      (fun (k, v) -> check Alcotest.int k v (Machine.counter d k))
      r.Machine.counters;
    check Alcotest.int "unknown counter" 0 (Machine.counter d "no-such-counter")

(* --------------------------- checkpoint ---------------------------- *)

let manifest ?(seed = 1) () =
  Mcsim_obs.Manifest.make ~seed ~benchmark:"compress" ~trace_instrs:1_000
    (Machine.dual_cluster ())

let checkpoint_roundtrip () =
  with_dir @@ fun dir ->
  let st = Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ()) () in
  check (Alcotest.option Alcotest.unit) "missing unit" None
    (Option.map ignore (Mcsim.Checkpoint.find st "a"));
  Mcsim.Checkpoint.record st ~key:"a" [ ("x", Json.Int 42) ];
  Mcsim.Checkpoint.record st ~key:"b/with/slashes" [ ("y", Json.String "z") ];
  (match Mcsim.Checkpoint.find st "a" with
  | Some d ->
    check (Alcotest.option Alcotest.int) "field" (Some 42)
      (Option.bind (Json.member "x" d) Json.get_int)
  | None -> Alcotest.fail "recorded unit not found");
  (match Mcsim.Checkpoint.find st "b/with/slashes" with
  | Some d ->
    check (Alcotest.option Alcotest.string) "field" (Some "z")
      (Option.bind (Json.member "y" d) Json.get_string)
  | None -> Alcotest.fail "slashed key not found");
  (* Reopening the same sweep sees the same units. *)
  let st2 = Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ()) () in
  check Alcotest.bool "unit survives reopen" true
    (Option.is_some (Mcsim.Checkpoint.find st2 "a"))

let checkpoint_overwrite () =
  with_dir @@ fun dir ->
  let st = Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ()) () in
  Mcsim.Checkpoint.record st ~key:"a" [ ("x", Json.Int 1) ];
  Mcsim.Checkpoint.record st ~key:"a" [ ("x", Json.Int 2) ];
  check (Alcotest.option Alcotest.int) "last write wins" (Some 2)
    (Option.bind (Mcsim.Checkpoint.find st "a") (fun d ->
         Option.bind (Json.member "x" d) Json.get_int))

let checkpoint_corrupt_unit () =
  with_dir @@ fun dir ->
  let st = Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ()) () in
  Mcsim.Checkpoint.record st ~key:"a" [ ("x", Json.Int 42) ];
  (* Truncate every unit file: a torn or corrupt unit must read as
     missing, not crash the sweep. *)
  Array.iter
    (fun f ->
      if String.length f > 4 && String.sub f 0 4 = "res-" then
        Out_channel.with_open_text (Filename.concat dir f) (fun oc ->
            Out_channel.output_string oc "{ not json"))
    (Sys.readdir dir);
  check (Alcotest.option Alcotest.unit) "corrupt unit is missing" None
    (Option.map ignore (Mcsim.Checkpoint.find st "a"))

let one_line msg = not (String.contains msg '\n')

let checkpoint_stale_refused () =
  with_dir @@ fun dir ->
  let _ = Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ()) () in
  (* Different manifest (seed) -> refused. *)
  (match Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ~seed:2 ()) () with
  | _ -> Alcotest.fail "stale manifest accepted"
  | exception Failure msg ->
    check Alcotest.bool "one-line error" true (one_line msg);
    check Alcotest.bool "names the directory" true (contains_sub ~needle:dir msg));
  (* Different kind -> refused. *)
  (match Mcsim.Checkpoint.open_ ~dir ~kind:"other" ~manifest:(manifest ()) () with
  | _ -> Alcotest.fail "stale kind accepted"
  | exception Failure msg -> check Alcotest.bool "one-line error" true (one_line msg));
  (* Different extra parameters -> refused. *)
  match
    Mcsim.Checkpoint.open_ ~dir ~kind:"test" ~manifest:(manifest ())
      ~extra:[ ("knob", Json.Int 3) ] ()
  with
  | _ -> Alcotest.fail "stale sweep parameters accepted"
  | exception Failure msg -> check Alcotest.bool "one-line error" true (one_line msg)

(* ------------------------ sweep resume ----------------------------- *)

let benches = [ Spec92.Compress; Spec92.Ora ]
let t2_instrs = 2_000
let t2 benchmarks = Mcsim.Table2.matrix ~max_instrs:t2_instrs ~benchmarks ()

let rows_equal what a b =
  check Alcotest.int (what ^ ": row count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Mcsim.Table2.row) (y : Mcsim.Table2.row) ->
      if x <> y then Alcotest.failf "%s: row %s differs" what x.Mcsim.Table2.benchmark)
    a b

let table2_resume_identical () =
  let straight = Kit.rows (t2 benches) in
  with_dir @@ fun dir ->
  (* First pass: jobs >= 1 die permanently; the sweep degrades to
     per-benchmark failures and keeps what completed. *)
  let first =
    Mcsim.Table2.run_report ~max_instrs:t2_instrs ~benchmarks:benches
      ~inject_fault:(fun ~job ~attempt:_ -> job >= 1)
      ~checkpoint:dir ()
  in
  check Alcotest.bool "first pass lost something" true
    (first.Mcsim.Table2.failed <> []);
  (* Resume without faults completes the sweep with identical rows and
     byte-identical CSV. *)
  let resumed = E.get_all (E.run ~checkpoint:dir (t2 benches)) in
  rows_equal "resume" straight resumed;
  check Alcotest.string "csv is byte-identical"
    (Mcsim.Table2.csv straight)
    (Mcsim.Table2.csv resumed)

let table2_complete_checkpoint_never_recomputes () =
  with_dir @@ fun dir ->
  let straight = E.get_all (E.run ~checkpoint:dir (t2 benches)) in
  (* Every unit is recorded, so even an always-failing injector cannot
     touch the rows: nothing executes. *)
  let cached =
    E.get_all
      (E.run ~inject_fault:(fun ~job:_ ~attempt:_ -> true) ~checkpoint:dir (t2 benches))
  in
  rows_equal "cached" straight cached

let table2_failure_message () =
  let report =
    Mcsim.Table2.run_report ~max_instrs:t2_instrs ~benchmarks:[ Spec92.Compress ]
      ~inject_fault:(fun ~job:_ ~attempt:_ -> true)
      ()
  in
  match report.Mcsim.Table2.failed with
  | [ (bench, msg) ] ->
    check Alcotest.string "benchmark name" "compress" bench;
    check Alcotest.bool "message is one line" true (one_line msg)
  | _ -> Alcotest.fail "expected exactly one failed benchmark"

(* Fault injection on a whole sweep, not just on the pool: compress,
   ora and doduc are three preparations and nine simulations. *)
let fault_benches = [ Spec92.Compress; Spec92.Ora; Spec92.Doduc ]

(* 40 % of attempts fail, in a pattern fixed by the seed; three retries
   absorb every fault and the checkpointed rows equal a clean sweep's. *)
let table2_transient_faults_retried () =
  let clean = Kit.rows (t2 fault_benches) in
  with_dir @@ fun dir ->
  let retried =
    E.get_all
      (E.run ~retries:3 ~backoff:Pool.no_backoff
         ~inject_fault:(fun ~job ~attempt ->
           Pool.seeded_faults ~seed:42 ~rate:0.4 ~job ~attempt)
         ~checkpoint:dir (t2 fault_benches))
  in
  rows_equal "retried" clean retried

(* A permanent fault on job 0 hits the first job of each stage:
   compress's preparation, then ora's first simulation (compress has
   none left to run). Exactly those two fail, and a resume of the
   checkpoint equals the clean sweep. *)
let table2_permanent_fault_then_resume () =
  let clean = Kit.rows (t2 fault_benches) in
  with_dir @@ fun dir ->
  let first =
    Mcsim.Table2.run_report ~max_instrs:t2_instrs ~benchmarks:fault_benches
      ~inject_fault:(fun ~job ~attempt:_ -> job = 0)
      ~checkpoint:dir ()
  in
  check Alcotest.(list string) "failed benchmarks" [ "compress"; "ora" ]
    (List.map fst first.Mcsim.Table2.failed);
  rows_equal "resume" clean (E.get_all (E.run ~checkpoint:dir (t2 fault_benches)))

(* QCheck: whatever prefix of the unit fan-out survives the first pass,
   resume always reconstructs the straight run exactly. *)
let resume_prefix_property =
  let straight = lazy (Kit.rows (t2 benches)) in
  QCheck.Test.make ~name:"resume after k surviving jobs equals the straight run" ~count:5
    QCheck.(int_bound 7)
    (fun k ->
      with_dir @@ fun dir ->
      let _ =
        Mcsim.Table2.run_report ~max_instrs:t2_instrs ~benchmarks:benches
          ~inject_fault:(fun ~job ~attempt:_ -> job >= k)
          ~checkpoint:dir ()
      in
      let resumed = E.get_all (E.run ~checkpoint:dir (t2 benches)) in
      let straight = Lazy.force straight in
      List.length straight = List.length resumed
      && List.for_all2 (fun (a : Mcsim.Table2.row) b -> a = b) straight resumed)

let ablation_checkpoint () =
  with_dir @@ fun dir ->
  let run ?inject_fault which =
    E.get_all
      (E.run ?inject_fault ~checkpoint:dir
         (Mcsim.Ablation.matrix ~max_instrs:2_000 which Spec92.Compress))
  in
  let fresh = run Mcsim.Ablation.Buffers in
  let cached = run ~inject_fault:(fun ~job:_ ~attempt:_ -> true) Mcsim.Ablation.Buffers in
  check Alcotest.bool "cached sweep equals fresh sweep" true (fresh = cached);
  (* A different point set is a different sweep. *)
  match run Mcsim.Ablation.Threshold with
  | _ -> Alcotest.fail "stale ablation checkpoint accepted"
  | exception Failure msg -> check Alcotest.bool "one-line error" true (one_line msg)

let res_files dir =
  List.sort compare
    (List.filter
       (fun f -> String.length f > 4 && String.sub f 0 4 = "res-")
       (Array.to_list (Sys.readdir dir)))

let unit_files dir = List.length (res_files dir)

(* One checkpointed (benchmark x cell) sweep, interrupted, resumed and
   re-opened by a different sweep. [run checkpoint inject_fault] gives
   each benchmark's cell cycles; [stale dir] runs a different sweep on
   [dir]. *)
let matrix_checkpoint ~cells ~run ~stale () =
  let fresh = run None None in
  with_dir @@ fun dir ->
  (* Interrupt the sweep: the single prep job (job 0 of stage 1) runs,
     then all but the first cell of the (benchmark x cell) fan-out die. *)
  (match run (Some dir) (Some (fun ~job ~attempt:_ -> job >= 1)) with
  | _ -> Alcotest.fail "expected the injected fault to surface"
  | exception Pool.Injected_fault _ -> ());
  check Alcotest.bool "partial progress was recorded" true (unit_files dir >= 1);
  (* Resume completes the remaining cells and matches a clean run. *)
  let cached = run (Some dir) None in
  check Alcotest.int "all cells recorded after resume" cells (unit_files dir);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.int)))
    "benchmarks and cycles" fresh cached;
  match stale dir with
  | () -> Alcotest.fail "stale checkpoint accepted"
  | exception Failure msg -> check Alcotest.bool "one-line error" true (one_line msg)

let cluster_count_checkpoint =
  let run ?(max_instrs = 2_000) checkpoint inject_fault =
    E.get_all
      (E.run ?checkpoint ?inject_fault
         (Mcsim.Cluster_count.matrix ~max_instrs ~benchmarks:[ Spec92.Compress ] ()))
    |> List.map (fun (r : Mcsim.Cluster_count.row) ->
           ( r.Mcsim.Cluster_count.benchmark,
             List.map (fun c -> c.Mcsim.Cluster_count.cycles) r.Mcsim.Cluster_count.cells ))
  in
  matrix_checkpoint ~cells:(List.length Mcsim.Cluster_count.matrix_points) ~run
    ~stale:(fun dir -> ignore (run ~max_instrs:3_000 (Some dir) None))

let steer_checkpoint =
  let run ?topology checkpoint inject_fault =
    E.get_all
      (E.run ?checkpoint ?inject_fault
         (Mcsim.Steer.matrix ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ?topology ()))
    |> List.map (fun (r : Mcsim.Steer.row) ->
           ( r.Mcsim.Steer.benchmark,
             List.map (fun c -> c.Mcsim.Steer.cycles) r.Mcsim.Steer.cells ))
  in
  matrix_checkpoint ~cells:(List.length Mcsim.Steer.matrix_points) ~run
    ~stale:(fun dir ->
      ignore (run ~topology:Mcsim_cluster.Interconnect.Ring (Some dir) None))

(* Checkpoint unit identities as earlier releases wrote them (compress,
   2 k instructions): a checkpoint is resumable across versions only while
   every unit keeps its file name, the digest of manifest and unit key,
   and the directory keeps its sweep identity ([sweep], the digest of
   sweep.json: kind, manifest and sweep parameters). *)
let units_pinned ?sweep ~run want () =
  with_dir @@ fun dir ->
  run dir;
  check (Alcotest.list Alcotest.string) "unit files"
    (List.sort compare (List.map (fun d -> "res-" ^ d ^ ".json") want))
    (res_files dir);
  Option.iter
    (fun want ->
      check Alcotest.string "sweep.json" want
        (Digest.to_hex (Digest.file (Filename.concat dir "sweep.json"))))
    sweep

let table2_identities_pinned =
  units_pinned
    ~run:(fun dir ->
      ignore
        (E.run ~checkpoint:dir
           (Mcsim.Table2.matrix ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ())))
    [ "18dff0e30aacd09dd5cd46a1b957ba6e"; "ebdc953680e0daa13f8aa2e7ed0e300b";
      "f37d570dd1fcac8dc31dac19a3506294" ]

let steer_identities_pinned =
  units_pinned
    ~run:(fun dir ->
      ignore
        (E.run ~checkpoint:dir
           (Mcsim.Steer.matrix ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ())))
    [ "015eba3695780834677c84ef78445173"; "19f8ef0c9b5db7c29f7c0ad97f0e26f8";
      "2c01979099700a4f58561a0dea62ac6f"; "3c99f620561d2e5b96b098b1a278f4a8";
      "4b0a4ee29a5c0b0b4b5362eaf9a154cd"; "4da9cfd4db1649e7d5f04a370ade361d";
      "61f3960172d36d5926810707cbd8df26"; "63487dd535e969359310c3cbdfacb231";
      "6471ff03794f7ca6e51f63036f7e0e7d"; "74f40ecc6fa559d794c37ad930fad47a";
      "79ca5752864f72aaddfaf16a8d2ad800"; "7e82043c2127bbca694d5d2eee96a937";
      "8c50fd3930976d429bbc29bc2b56a69e"; "9acbe861fde671db1d16a036266875d4";
      "9c56aff5fa0cbb8d0dc2f510e68bb7ab"; "9cf28bc0cf3e251d4ab35988807dce29";
      "b8e8c16e051e1028d252eae5dfea9bc9"; "badd2aeb3aca30cdd91ba41099254498";
      "bf9c961453984961528af636a84491cc"; "c8f01daaba6932355c088690a5a18207";
      "cf670af14f15dc289c9229561c5db1f1"; "d587c7a880848205710e5ca3e82d1872";
      "da38ba791658a333dc3eb86cbeaf863d"; "daafc1fab8773cdd22f8f5b44b4d1a44";
      "dbae8efbed469a2e5deff6ef4ae11304"; "e2ceda2d7d07affc406c623bfd224f28";
      "e78cea9c0297875af30ffd3146d4c1ec"; "e8cfd05437ee706e04a61c4c2011c708";
      "f4148446b5be1ec50648c219c35d9400"; "f8e562fffc620678bca84e5e798043b1" ]

let clusters_identities_pinned =
  units_pinned ~sweep:"93dea95b995ccc9db8e377557af08db2"
    ~run:(fun dir ->
      ignore
        (E.run ~checkpoint:dir
           (Mcsim.Cluster_count.matrix ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ())))
    [ "1368b91f157cd5481636bd8f14f7beb0"; "284057cc7b84755813baf4fc68acf1b3";
      "3d45a69146a92d98fa3249837db434ff"; "5e1331dd00a15a066479af614430e646";
      "640c7f0d7f9ec96fae2d999bb83e1475"; "66f7842844b8fddb077e98c3c128ed43";
      "6a5a93872352f31c9fb7afdc7dddaa4a"; "79338b9cb0fdb134e3ca5c24dae820d0";
      "ee0c058a136287a0028b78abef89f75d"; "f86ca04e26fbdaf29eadbc40a2d40e6e" ]

let ablation_identities_pinned =
  units_pinned ~sweep:"bdc2c4eabeed8756f25acf9571bad1a9"
    ~run:(fun dir ->
      ignore
        (E.run ~checkpoint:dir
           (Mcsim.Ablation.matrix ~max_instrs:2_000 Mcsim.Ablation.Buffers Spec92.Compress)))
    [ "18dff0e30aacd09dd5cd46a1b957ba6e"; "309b48623e3f351a09affbf7af31f812";
      "51477f2405b1f18bc9f34a10208857e1"; "b751c56deca19ab2505232fbc7632522";
      "cbaa2d1521759384b625b0b94768d7d2"; "f0f6eacdab34dac9aaf0b53eef3fe28e" ]

let unrolling_kernel_identities_pinned =
  units_pinned ~sweep:"954e1a7c798cc7ede3fabf430e977c8d"
    ~run:(fun dir ->
      ignore
        (E.run ~checkpoint:dir { Mcsim.Ablation.unrolling_kernel with max_instrs = 2_000 }))
    [ "222b04befa7f8a9573137ef92b2c27e7"; "2828060d4c6c72d4d43033b7ba84a419";
      "4d1bb1ea458a2b077bf4907214f5beac"; "beea83f1717b7c5f376a3f8f29b0a999" ]

let suite =
  ( "durable",
    [ case "backoff: deterministic doubling with a cap" backoff_shape;
      case "seeded_faults: replayable, rate 0 and 1 exact" seeded_faults_deterministic;
      case "seeded_faults: observed rate near nominal" seeded_faults_rate;
      case "retry: transient faults recover" retry_succeeds;
      case "retry: exhaustion reports attempts and one-line message" retry_exhaustion;
      case "retry: zero retries raises the injected fault" retry_zero_raises;
      case "status map runs every job despite failures" status_does_not_stop;
      case "metrics: result JSON round-trips with counters" result_roundtrip;
      case "checkpoint: record/find/keys round-trip" checkpoint_roundtrip;
      case "checkpoint: rewrite wins" checkpoint_overwrite;
      case "checkpoint: corrupt unit reads as missing" checkpoint_corrupt_unit;
      case "checkpoint: stale kind/manifest/params refused" checkpoint_stale_refused;
      case "table2: interrupted + resume equals straight run" table2_resume_identical;
      case "table2: complete checkpoint never recomputes"
        table2_complete_checkpoint_never_recomputes;
      case "table2: permanent failure degrades to a row-level report"
        table2_failure_message;
      case "table2: 40% transient faults, retried, equal a clean sweep"
        table2_transient_faults_retried;
      case "table2: a permanent fault fails exactly its benchmarks; resume completes"
        table2_permanent_fault_then_resume;
      Kit.qcheck resume_prefix_property;
      case "ablation: checkpoint reload and stale refusal" ablation_checkpoint;
      case "cluster_count: checkpoint reload" cluster_count_checkpoint;
      case "steer: checkpoint reload, resume and stale topology" steer_checkpoint;
      case "table2: checkpoint unit identities pinned" table2_identities_pinned;
      case "steer: checkpoint unit identities pinned" steer_identities_pinned;
      case "clusters: checkpoint unit identities pinned" clusters_identities_pinned;
      case "ablation: checkpoint unit identities pinned" ablation_identities_pinned;
      case "unrolling kernel: checkpoint unit identities pinned"
        unrolling_kernel_identities_pinned ] )
