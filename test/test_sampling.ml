(* Tests for sampled simulation: the resumable machine-state API
   (warm_flat / run_interval_flat) and the Sampling driver. *)

module Machine = Mcsim_cluster.Machine
module Sampling = Mcsim_sampling.Sampling
module Spec92 = Mcsim_workload.Spec92
module Walker = Mcsim_trace.Walker
module Pipeline = Mcsim_compiler.Pipeline
module Flat_trace = Mcsim_isa.Flat_trace

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* One shared gcc1 trace, built once. *)
let trace =
  lazy
    (let prog = Spec92.program Spec92.Gcc1 in
     let profile = Walker.profile prog in
     let native = Pipeline.compile ~profile ~scheduler:Pipeline.Sched_none prog in
     Walker.trace_flat ~max_instrs:120_000 native.Pipeline.mach)

(* ------------------------- policy ---------------------------------- *)

let policy_roundtrip () =
  let p = { Sampling.interval = 20_000; warmup = 1_000; detail = 3_000; seed = 1 } in
  check Alcotest.string "to_string" "20000:1000:3000" (Sampling.policy_to_string p);
  match Sampling.policy_of_string "20000:1000:3000" with
  | Ok q ->
    check Alcotest.bool "roundtrip" true (p = q);
    Sampling.validate_policy q
  | Error m -> Alcotest.failf "unexpected parse error: %s" m

let policy_errors () =
  let bad s =
    match Sampling.policy_of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error m ->
      check Alcotest.bool (s ^ " error is one line") false (String.contains m '\n')
  in
  List.iter bad
    [ "foo"; "1:2"; "1:2:3:4"; "1:2:3"; "0:0:1"; "100:-1:5"; "100:1:0"; "a:b:c";
      (* warmup + detail wraps to a negative sum *)
      "10:4611686018427387903:4611686018427387903" ];
  Alcotest.check_raises "validate rejects detail 0"
    (Invalid_argument "Sampling: detail < 1") (fun () ->
      Sampling.validate_policy { Sampling.interval = 10; warmup = 0; detail = 0; seed = 1 })

(* -------------------- resumable machine state ---------------------- *)

let warm_bounds () =
  let t = Lazy.force trace in
  let raises () =
    Alcotest.check_raises "bad interval"
      (Invalid_argument "Machine.warm_flat: bad interval")
  in
  let st () = Machine.init_state (Machine.dual_cluster ()) in
  (raises ()) (fun () -> Machine.warm_flat (st ()) t ~lo:(-1) ~hi:10);
  (raises ()) (fun () -> Machine.warm_flat (st ()) t ~lo:0 ~hi:(Flat_trace.length t + 1));
  (raises ()) (fun () -> Machine.warm_flat (st ()) t ~lo:10 ~hi:5)

let warm_counts () =
  let t = Lazy.force trace in
  let st = Machine.init_state (Machine.dual_cluster ()) in
  Machine.warm_flat st t ~lo:0 ~hi:(Flat_trace.length t);
  Machine.warm_flat st t ~lo:0 ~hi:0 (* empty interval is a no-op *);
  let r = Machine.state_result st in
  check Alcotest.int "nothing retired" 0 r.Machine.retired;
  check Alcotest.int "one cycle per warmed instruction" (Flat_trace.length t) r.Machine.cycles

let run_interval_bounds () =
  let t = Lazy.force trace in
  let st () = Machine.init_state (Machine.dual_cluster ()) in
  let raises what f =
    match f () with
    | (_ : Machine.interval) -> Alcotest.failf "%s should raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "empty interval" (fun () ->
      Machine.run_interval_flat (st ()) t ~lo:10 ~hi:10 ~measure_from:10);
  raises "past the end" (fun () ->
      Machine.run_interval_flat (st ()) t ~lo:0 ~hi:(Flat_trace.length t + 1) ~measure_from:0);
  raises "measure_from at hi" (fun () ->
      Machine.run_interval_flat (st ()) t ~lo:0 ~hi:100 ~measure_from:100);
  raises "measure_from below lo" (fun () ->
      Machine.run_interval_flat (st ()) t ~lo:50 ~hi:100 ~measure_from:40)

(* Driving the whole trace through one detailed interval must reproduce
   Machine.run_flat exactly: both paths are load_phase + the same cycle
   loop. *)
let whole_trace_interval_equals_run () =
  let t = Flat_trace.sub (Lazy.force trace) ~pos:0 ~len:20_000 in
  let cfg = Machine.dual_cluster () in
  let full = Machine.run_flat cfg t in
  let st = Machine.init_state cfg in
  let iv = Machine.run_interval_flat st t ~lo:0 ~hi:(Flat_trace.length t) ~measure_from:0 in
  let r = Machine.state_result st in
  check Alcotest.int "cycles" full.Machine.cycles r.Machine.cycles;
  check Alcotest.int "retired" full.Machine.retired r.Machine.retired;
  check Alcotest.int "no warmup cycles" 0 iv.Machine.iv_warmup_cycles;
  check Alcotest.int "all cycles measured" full.Machine.cycles iv.Machine.iv_cycles;
  check Alcotest.int "all instructions measured" (Flat_trace.length t) iv.Machine.iv_retired

(* ------------------------- sampling run ---------------------------- *)

let policy_60k = { Sampling.interval = 20_000; warmup = 2_000; detail = 2_000; seed = 1 }

let sampled_deterministic () =
  let t = Lazy.force trace in
  let cfg = Machine.dual_cluster () in
  let a = Sampling.run_flat ~policy:policy_60k cfg t in
  let b = Sampling.run_flat ~policy:policy_60k cfg t in
  check Alcotest.bool "identical intervals" true (a.Sampling.intervals = b.Sampling.intervals);
  check (Alcotest.float 0.0) "identical mean" a.Sampling.mean_ipc b.Sampling.mean_ipc;
  check Alcotest.int "identical estimate" a.Sampling.est_cycles b.Sampling.est_cycles

let sampled_coverage () =
  let t = Lazy.force trace in
  let r = Sampling.run_flat ~policy:policy_60k (Machine.dual_cluster ()) t in
  let units = List.length r.Sampling.intervals in
  check Alcotest.bool "several units" true (units >= 2);
  check Alcotest.int "detailed instructions" (units * (2_000 + 2_000)) r.Sampling.detailed_instrs;
  check Alcotest.int "full coverage" (Flat_trace.length t)
    (r.Sampling.detailed_instrs + r.Sampling.warmed_instrs);
  List.iteri
    (fun i (s : Sampling.interval_stat) ->
      check Alcotest.int "indices in order" i s.Sampling.index;
      check Alcotest.int "measured instructions" 2_000 s.Sampling.detail_instrs;
      check Alcotest.bool "positive ipc" true (s.Sampling.ipc > 0.0))
    r.Sampling.intervals

let sampled_accuracy () =
  let t = Lazy.force trace in
  let cfg = Machine.dual_cluster () in
  let full = Machine.run_flat cfg t in
  let r = Sampling.run_flat ~policy:policy_60k cfg t in
  let err = Float.abs (r.Sampling.mean_ipc -. full.Machine.ipc) /. full.Machine.ipc in
  check Alcotest.bool
    (Printf.sprintf "sampled IPC within 10%% of full (got %.2f%%)" (100.0 *. err))
    true (err < 0.10);
  let est = Sampling.estimate r in
  check Alcotest.int "estimate retires the whole trace" (Flat_trace.length t)
    est.Machine.retired;
  check Alcotest.int "estimate cycles" r.Sampling.est_cycles est.Machine.cycles;
  check (Alcotest.float 1e-9) "estimate ipc" r.Sampling.mean_ipc est.Machine.ipc

let sampled_too_short () =
  let t = Flat_trace.sub (Lazy.force trace) ~pos:0 ~len:30_000 in
  match Sampling.run_flat (Machine.dual_cluster ()) t with
  | _ -> Alcotest.fail "one unit should not form a sample"
  | exception Invalid_argument m ->
    check Alcotest.bool "message names the shortfall" true
      (String.length m > 0 && m.[String.length m - 1] <> '\n')

(* The Table-2 cells under sampling: every field of every sampled
   result, not just the rows Table 2 projects from them. *)
let sampled_jobs_invariant () =
  let module E = Mcsim.Experiment in
  let cells =
    { E.key = "single"; binary = E.native; config = Machine.single_cluster () }
    :: List.map
         (fun (name, scheduler) ->
           { E.key = "sched/" ^ name;
             binary = { E.native with scheduler };
             config = Machine.dual_cluster () })
         E.default_schedulers
  in
  let go jobs =
    E.run ~jobs
      { E.kind = "test"; identity = (Machine.dual_cluster (), []);
        programs = [ Spec92.program Spec92.Gcc1; Spec92.program Spec92.Compress ]; cells;
        seed = 1; max_instrs = 60_000; sampling = Some policy_60k;
        row = (fun _ rs -> List.map snd rs) }
    |> E.get_all
  in
  check Alcotest.bool "jobs=1 equals jobs=3" true (go 1 = go 3)

let suite =
  ( "sampling",
    [ case "policy: roundtrip" policy_roundtrip;
      case "policy: malformed strings rejected" policy_errors;
      case "warm: interval bounds" warm_bounds;
      case "warm: counts and no retirement" warm_counts;
      case "run_interval: interval bounds" run_interval_bounds;
      case "run_interval: whole trace equals Machine.run_flat" whole_trace_interval_equals_run;
      case "run: deterministic for equal seed+policy" sampled_deterministic;
      case "run: unit coverage accounting" sampled_coverage;
      slow_case "run: accuracy and estimate vs full run" sampled_accuracy;
      case "run: trace too short raises" sampled_too_short;
      slow_case "experiment: sampled rows identical for any jobs" sampled_jobs_invariant ] )
