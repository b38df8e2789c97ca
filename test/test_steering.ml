(* Tests for dynamic dispatch-time steering: the policy family and its
   names, the ineffectuality predictor, forced-master distribution
   plans, the static policy's bit-identity with the stock machine, the
   scan/wakeup engine agreement under every dynamic policy, and the
   scheduler x steering x clusters sweep behind `mcsim steer`. *)

module Machine = Mcsim_cluster.Machine
module Assignment = Mcsim_cluster.Assignment
module Distribution = Mcsim_cluster.Distribution
module Steering = Mcsim_cluster.Steering
module Interconnect = Mcsim_cluster.Interconnect
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class
module Instr = Mcsim_isa.Instr
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ---------------------------- names -------------------------------- *)

let policy_names () =
  List.iter
    (fun p ->
      check Alcotest.bool
        ("round-trips: " ^ Steering.to_string p)
        true
        (Steering.of_string (Steering.to_string p) = Ok p);
      check Alcotest.bool "describe is one line" false
        (String.contains (Steering.describe p) '\n'))
    Steering.all;
  check Alcotest.int "five policies" 5 (List.length Steering.all);
  check Alcotest.bool "static first" true (List.hd Steering.all = Steering.Static);
  (* CLI spelling aliases. *)
  List.iter
    (fun (s, p) ->
      check Alcotest.bool ("alias " ^ s) true (Steering.of_string s = Ok p))
    [ ("rr", Steering.Modulo); ("round-robin", Steering.Modulo);
      ("dep", Steering.Dependence); ("ineff", Steering.Ineffectual) ];
  (match Steering.of_string "warp" with
  | Error e ->
    check Alcotest.bool "error names the policy" true
      (try ignore (Str.search_forward (Str.regexp_string "warp") e 0); true
       with Not_found -> false)
  | Ok _ -> Alcotest.fail "unknown policy accepted");
  check Alcotest.bool "static is not dynamic" false (Steering.is_dynamic Steering.Static);
  check Alcotest.int "all others are" 4
    (List.length (List.filter Steering.is_dynamic Steering.all))

let require_clustered () =
  (* Static never complains, even on the single-cluster machine. *)
  Steering.require_clustered ~what:"run" Steering.Static ~clusters:1;
  List.iter
    (fun p ->
      if Steering.is_dynamic p then begin
        Steering.require_clustered ~what:"run" p ~clusters:2;
        match Mcsim.Cli_errors.handle (fun () ->
            Steering.require_clustered ~what:"run" p ~clusters:1)
        with
        | Ok () -> Alcotest.fail (Steering.to_string p ^ " accepted on one cluster")
        | Error line ->
          check Alcotest.string "one-line CLI message"
            (Printf.sprintf
               "mcsim: error: run: --steering %s needs a clustered machine (use --clusters 2, 4 or 8)"
               (Steering.to_string p))
            line
      end)
    Steering.all;
  (* The table2 conflict spells its own command name. *)
  match Mcsim.Cli_errors.handle (fun () ->
      Steering.require_clustered ~what:"table2" Steering.Load ~clusters:1)
  with
  | Error
      "mcsim: error: table2: --steering load needs a clustered machine (use --clusters 2, 4 or 8)"
    -> ()
  | Ok () -> Alcotest.fail "table2 conflict accepted"
  | Error other -> Alcotest.failf "unexpected table2 message: %s" other

(* ---------------------- ineffectuality table ------------------------ *)

let ineff_table_dynamics () =
  let t = Steering.Ineff_table.create ~bits:4 () in
  check Alcotest.bool "empty predicts live" false (Steering.Ineff_table.predict_dead t ~pc:7);
  Steering.Ineff_table.train t ~pc:7 ~dead:true;
  check Alcotest.bool "one dead retirement is not enough" false
    (Steering.Ineff_table.predict_dead t ~pc:7);
  Steering.Ineff_table.train t ~pc:7 ~dead:true;
  check Alcotest.bool "two dead retirements predict dead" true
    (Steering.Ineff_table.predict_dead t ~pc:7);
  (* Saturates at 3: two live trainings always clear the prediction. *)
  for _ = 1 to 10 do Steering.Ineff_table.train t ~pc:7 ~dead:true done;
  Steering.Ineff_table.train t ~pc:7 ~dead:false;
  check Alcotest.bool "still above threshold" true (Steering.Ineff_table.predict_dead t ~pc:7);
  Steering.Ineff_table.train t ~pc:7 ~dead:false;
  check Alcotest.bool "second live training clears" false
    (Steering.Ineff_table.predict_dead t ~pc:7);
  (* Direct-mapped: pc and pc + 2^bits share a slot. *)
  Steering.Ineff_table.train t ~pc:3 ~dead:true;
  Steering.Ineff_table.train t ~pc:(3 + 16) ~dead:true;
  check Alcotest.bool "aliased pcs share a counter" true
    (Steering.Ineff_table.predict_dead t ~pc:3);
  check Alcotest.int "trainings counted" 16 (Steering.Ineff_table.trainings t);
  check Alcotest.int "dead trainings counted" 14 (Steering.Ineff_table.dead_trainings t);
  Steering.Ineff_table.reset t;
  check Alcotest.bool "reset clears counters" false
    (Steering.Ineff_table.predict_dead t ~pc:3);
  check Alcotest.int "reset clears statistics" 0 (Steering.Ineff_table.trainings t)

let ineff_table_validation () =
  Alcotest.check_raises "bits too small"
    (Invalid_argument "Steering.Ineff_table.create: bits outside [4, 24]") (fun () ->
      ignore (Steering.Ineff_table.create ~bits:3 ()));
  Alcotest.check_raises "bits too large"
    (Invalid_argument "Steering.Ineff_table.create: bits outside [4, 24]") (fun () ->
      ignore (Steering.Ineff_table.create ~bits:25 ()))

(* ------------------------- forced plans ----------------------------- *)

let quad_asg = Assignment.create ~num_clusters:4 ()

(* Whether [m] can host the whole instruction: every source readable
   there, destination local to it or absent — exactly when
   [plan_steered] must return [Single]. *)
let can_host asg m i =
  List.for_all (fun s -> Reg.is_zero s || Assignment.readable_in asg s m) i.Instr.srcs
  && (match i.Instr.dst with
     | None -> true
     | Some d -> Reg.is_zero d || Assignment.placement asg d = Assignment.Local m)

let arb_steered =
  let open QCheck.Gen in
  let reg = map Reg.int_reg (int_bound 31) in
  let gen =
    let* nsrc = int_bound 2 in
    let* srcs = list_repeat nsrc reg in
    let* dst = opt reg in
    let op = match dst with Some _ -> Op.Int_other | None -> Op.Control in
    let dst = match op with Op.Control -> None | _ -> dst in
    let* master = int_bound 3 in
    return (Instr.make ~op ~srcs ~dst, master)
  in
  QCheck.make gen

let steered_plan_invariants =
  QCheck.Test.make ~name:"steered plans honor the forced master" ~count:500 arb_steered
    (fun (i, m) ->
      match Distribution.plan_steered quad_asg ~master:m i with
      | Distribution.Single { cluster } -> cluster = m && can_host quad_asg m i
      | Distribution.Multi { master; slaves; _ } ->
        master = m
        && (not (can_host quad_asg m i))
        && slaves <> []
        && List.for_all
             (fun sl ->
               sl.Distribution.s_cluster <> m
               && List.for_all
                    (fun f ->
                      List.exists (Reg.equal f) i.Instr.srcs
                      && not (Assignment.readable_in quad_asg f m))
                    sl.Distribution.s_forward_srcs)
             slaves)

let steered_plan_validation () =
  let i = Instr.make ~op:Op.Int_other ~srcs:[ Reg.int_reg 1 ] ~dst:(Some (Reg.int_reg 2)) in
  List.iter
    (fun m ->
      check Alcotest.bool
        (Printf.sprintf "master %d rejected" m)
        true
        (try
           ignore (Distribution.plan_steered quad_asg ~master:m i);
           false
         with Invalid_argument _ -> true))
    [ -1; 4; 99 ]

(* --------------------- machine-level behavior ----------------------- *)

let compress = List.hd Spec92.all

let trace_for n =
  let prog = Spec92.program compress in
  let profile = Walker.profile ~seed:1 prog in
  let c = Pipeline.compile ~clusters:n ~profile ~scheduler:Pipeline.default_local prog in
  Walker.trace_flat ~seed:1 ~max_instrs:2_500 c.Pipeline.mach

let steered_cfg ?(topology = Interconnect.Point_to_point) n pol =
  { (Machine.config_for_clusters ~topology n) with Machine.steering = pol }

(* Static is the default of every stock config, and its counter list is
   exactly the pre-steering one: no steer_* or ineff_* keys at all, so
   goldens diffed against a stock run stay byte-identical. *)
let static_is_stock () =
  List.iter
    (fun n ->
      check Alcotest.bool
        (Printf.sprintf "%d-cluster stock config is static" n)
        true
        ((Machine.config_for_clusters n).Machine.steering = Steering.Static))
    [ 1; 2; 4; 8 ];
  let trace = trace_for 4 in
  let stock = Machine.run_flat (Machine.config_for_clusters 4) trace in
  let explicit = Machine.run_flat (steered_cfg 4 Steering.Static) trace in
  check Alcotest.bool "explicit --steering static is bit-identical" true (stock = explicit);
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " absent under static") false
        (List.mem_assoc key stock.Machine.counters))
    [ "steer_hits"; "steer_fallbacks"; "steer_dead_exiles"; "ineff_trainings";
      "ineff_dead_trainings" ]

(* Every dynamic policy reports its decisions; the ineffectual policy
   additionally trains its predictor at retire. *)
let dynamic_counters () =
  let trace = trace_for 4 in
  List.iter
    (fun pol ->
      if Steering.is_dynamic pol then begin
        let r = Machine.run_flat (steered_cfg 4 pol) trace in
        let name = Steering.to_string pol in
        check Alcotest.int (name ^ ": everything retires") (Mcsim_isa.Flat_trace.length trace)
          r.Machine.retired;
        check Alcotest.bool (name ^ ": decisions counted") true
          (Machine.counter r "steer_hits"
           + Machine.counter r "steer_fallbacks"
           + Machine.counter r "steer_dead_exiles"
           > 0)
      end)
    Steering.all;
  let r = Machine.run_flat (steered_cfg 4 Steering.Ineffectual) trace in
  check Alcotest.bool "ineffectual trains at retire" true
    (Machine.counter r "ineff_trainings" > 0);
  check Alcotest.bool "dead trainings bounded by trainings" true
    (Machine.counter r "ineff_dead_trainings" <= Machine.counter r "ineff_trainings")

(* Round-robin distribution must reach every cluster, including the ones
   the compile-time partition would never pick for this code. *)
let modulo_reaches_all_clusters () =
  let trace = trace_for 4 in
  let used = Array.make 4 false in
  let on_event = function
    | Machine.Ev_dispatch { cluster; _ } -> used.(cluster) <- true
    | _ -> ()
  in
  ignore (Machine.run_flat ~on_event (steered_cfg 4 Steering.Modulo) trace);
  Array.iteri
    (fun c u -> check Alcotest.bool (Printf.sprintf "cluster %d dispatched" c) true u)
    used

(* ------------------- engine agreement, full matrix ------------------ *)

(* Human-readable first divergence, as in Test_engine. *)
let explain_diff (a : Machine.result) (b : Machine.result) =
  if a.Machine.cycles <> b.Machine.cycles then
    Printf.sprintf "cycles: scan %d, wakeup %d" a.Machine.cycles b.Machine.cycles
  else if a.Machine.ipc <> b.Machine.ipc then
    Printf.sprintf "ipc: scan %f, wakeup %f" a.Machine.ipc b.Machine.ipc
  else begin
    let rec first_counter_diff xs ys =
      match (xs, ys) with
      | [], [] -> "results differ outside cycles/ipc/counters"
      | (k, v) :: xs', (k', v') :: ys' ->
        if k <> k' then Printf.sprintf "counter sets differ: %s vs %s" k k'
        else if v <> v' then Printf.sprintf "counter %s: scan %d, wakeup %d" k v v'
        else first_counter_diff xs' ys'
      | (k, _) :: _, [] | [], (k, _) :: _ ->
        Printf.sprintf "counter %s present in one engine only" k
    in
    first_counter_diff a.Machine.counters b.Machine.counters
  end

(* The whole policy x topology matrix at one cluster count: both engines
   must agree bit-for-bit on every cell, and every cell must retire the
   full trace (the steered-dispatch deadlock regression). *)
let engines_agree_at n () =
  let trace = trace_for n in
  List.iter
    (fun topology ->
      List.iter
        (fun pol ->
          let cfg = steered_cfg ~topology n pol in
          let scan = Machine.run_flat ~engine:`Scan cfg trace in
          let wake = Machine.run_flat ~engine:`Wakeup cfg trace in
          let cell =
            Printf.sprintf "%d/%s/%s" n (Interconnect.to_string topology)
              (Steering.to_string pol)
          in
          if scan <> wake then
            Alcotest.failf "engines diverge on %s: %s" cell (explain_diff scan wake);
          check Alcotest.int (cell ^ " retires everything") (Mcsim_isa.Flat_trace.length trace)
            scan.Machine.retired)
        Steering.all)
    Interconnect.all

(* ------------------------- the steer sweep -------------------------- *)

let steer_matrix_shape () =
  check Alcotest.(list int) "cluster counts" [ 2; 4; 8 ] Mcsim.Steer.cluster_counts;
  check Alcotest.(list string) "schedulers" [ "none"; "local" ] Mcsim.Steer.scheduler_names;
  check Alcotest.int "cells"
    (2 * 3 * List.length Steering.all)
    (List.length Mcsim.Steer.matrix_points)

let steer_sweep_small () =
  let open Mcsim.Steer in
  let rows =
    Kit.rows ~jobs:2 (Mcsim.Steer.matrix ~max_instrs:400 ~benchmarks:[ compress ] ())
  in
  match rows with
  | [ row ] ->
    check Alcotest.string "benchmark name" (Spec92.name compress) row.benchmark;
    check Alcotest.int "one cell per matrix point" (List.length matrix_points)
      (List.length row.cells);
    List.iter2
      (fun (sched, n, pol) cell ->
        check Alcotest.string "scheduler in order" (Pipeline.scheduler_name sched)
          cell.scheduler;
        check Alcotest.int "clusters in order" n cell.clusters;
        check Alcotest.bool "policy in order" true (cell.steering = pol);
        check Alcotest.bool "cycles positive" true (cell.cycles > 0);
        if pol = Steering.Static then
          check (Alcotest.float 0.0) "static scores 0 against itself" 0.0 cell.vs_static_pct)
      matrix_points row.cells;
    (* Scores are consistent with the static cell of the same pair. *)
    List.iter
      (fun cell ->
        match
          find_cell row ~scheduler:cell.scheduler ~clusters:cell.clusters
            ~steering:Steering.Static
        with
        | None -> Alcotest.fail "static baseline cell missing"
        | Some base ->
          let expect =
            100.0 -. (100.0 *. float_of_int cell.cycles /. float_of_int base.cycles)
          in
          check (Alcotest.float 0.01) "vs_static_pct consistent" expect cell.vs_static_pct)
      row.cells;
    check Alcotest.bool "unknown cell is None" true
      (find_cell row ~scheduler:"global" ~clusters:2 ~steering:Steering.Static = None);
    (* Render / CSV / JSON surfaces. *)
    let text = render rows in
    check Alcotest.bool "render mentions the benchmark" true
      (try ignore (Str.search_forward (Str.regexp_string "compress") text 0); true
       with Not_found -> false);
    let lines = String.split_on_char '\n' (String.trim (csv rows)) in
    check Alcotest.string "csv header"
      "benchmark,scheduler,clusters,steering,cycles,ipc,multi_fraction,vs_static_pct"
      (List.hd lines);
    check Alcotest.int "csv body lines" (List.length matrix_points) (List.length lines - 1);
    (match rows_json rows with
    | Mcsim_obs.Json.List [ Mcsim_obs.Json.Obj _ ] -> ()
    | _ -> Alcotest.fail "rows_json shape")
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let suite =
  ( "steering",
    [ case "policy names and aliases" policy_names;
      case "dynamic policies need clusters" require_clustered;
      case "ineffectuality table dynamics" ineff_table_dynamics;
      case "ineffectuality table validation" ineff_table_validation;
      Kit.qcheck steered_plan_invariants;
      case "steered plan rejects bad masters" steered_plan_validation;
      case "static is the stock machine" static_is_stock;
      case "dynamic policies report decisions" dynamic_counters;
      case "modulo reaches every cluster" modulo_reaches_all_clusters;
      case "scan = wakeup on the full matrix (2 clusters)" (engines_agree_at 2);
      case "scan = wakeup on the full matrix (4 clusters)" (engines_agree_at 4);
      case "scan = wakeup on the full matrix (8 clusters)" (engines_agree_at 8);
      case "steer matrix shape" steer_matrix_shape;
      case "steer sweep end to end" steer_sweep_small ] )
