(* Tests for Mcsim_trace: the profiling walk and the trace walker. *)

module Walker = Mcsim_trace.Walker
module Profile = Mcsim_ir.Profile
module Program = Mcsim_ir.Program
module Il = Mcsim_ir.Il
module Builder = Program.Builder
module Op = Mcsim_isa.Op_class
module Flat_trace = Mcsim_isa.Flat_trace
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Mach_prog = Mcsim_compiler.Mach_prog
module Spec92 = Mcsim_workload.Spec92
module Synth = Mcsim_workload.Synth

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* A two-block loop with a known trip count. *)
let loop_program trip =
  let b = Builder.create ~name:"loop" in
  let x = Builder.fresh_lr b ~name:"x" Il.Bank_int in
  let body = Builder.reserve_block b in
  let exit_blk = Builder.add_block b [] Il.Halt in
  Builder.define_block b body
    [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:x ();
      Il.instr ~op:Op.Int_other ~srcs:[ x; x ] ~dst:x () ]
    (Il.Cond { src = Some x; model = Mcsim_ir.Branch_model.Loop { trip }; taken = body;
               not_taken = exit_blk });
  Builder.finish b ~entry:body

let compile prog =
  (Pipeline.compile ~scheduler:Pipeline.Sched_none prog).Pipeline.mach

let profile_counts_loop () =
  let p = loop_program 10 in
  let prof = Walker.profile p in
  check (Alcotest.float 1e-9) "body runs trip times" 10.0 (Profile.count prof 0);
  check (Alcotest.float 1e-9) "exit runs once" 1.0 (Profile.count prof 1)

let profile_max_blocks_caps () =
  let p = loop_program 1_000_000 in
  let prof = Walker.profile ~max_blocks:100 p in
  check (Alcotest.float 1e-9) "capped" 100.0 (Profile.total prof)

let trace_loop_contents () =
  let m = compile (loop_program 3) in
  let tr = Walker.trace_flat m in
  (* 3 iterations x (2 body + 1 branch) = 9 dynamic instructions. *)
  check Alcotest.int "9 instructions" 9 (Flat_trace.length tr);
  let branches = List.filter (Flat_trace.has_branch tr) (List.init 9 Fun.id) in
  check Alcotest.int "3 branches" 3 (List.length branches);
  let takens = List.map (Flat_trace.branch_taken tr) branches in
  check Alcotest.(list bool) "taken taken not-taken" [ true; true; false ] takens

let trace_seq_and_pc () =
  let m = compile (loop_program 3) in
  let tr = Walker.trace_flat m in
  (* The machine numbers instructions by trace position. *)
  let retired = ref [] in
  let on_event = function
    | Machine.Ev_retire { seq; _ } -> retired := seq :: !retired
    | _ -> ()
  in
  ignore (Machine.run_flat ~on_event (Machine.single_cluster ()) tr);
  check Alcotest.(list int) "seq is the index" (List.init 9 Fun.id) (List.rev !retired);
  (* Body pcs repeat every iteration; the branch sits at pc 2. *)
  check Alcotest.int "first pc" 0 (Flat_trace.pc tr 0);
  check Alcotest.int "branch pc" 2 (Flat_trace.pc tr 2);
  check Alcotest.int "second iteration restarts" 0 (Flat_trace.pc tr 3)

let trace_max_instrs () =
  let m = compile (loop_program 1_000_000) in
  let tr = Walker.trace_flat ~max_instrs:500 m in
  check Alcotest.int "capped at 500" 500 (Flat_trace.length tr)

let trace_deterministic () =
  let m = compile (Spec92.program Spec92.Compress) in
  let a = Walker.trace_flat ~seed:5 ~max_instrs:2_000 m in
  let b = Walker.trace_flat ~seed:5 ~max_instrs:2_000 m in
  Trace_kit.check_equal "same seed" a b

let trace_seed_changes_path () =
  let m = compile (Spec92.program Spec92.Compress) in
  let a = Walker.trace_flat ~seed:5 ~max_instrs:2_000 m in
  let b = Walker.trace_flat ~seed:6 ~max_instrs:2_000 m in
  let same = ref true in
  for i = 0 to min (Flat_trace.length a) (Flat_trace.length b) - 1 do
    if Flat_trace.pc a i <> Flat_trace.pc b i then same := false
  done;
  check Alcotest.bool "different seed, different path" false !same

(* The key methodology property: the native and rescheduled binaries of
   the same program follow the same dynamic path for the same seed. *)
let trace_same_path_across_binaries () =
  let prog = Spec92.program Spec92.Gcc1 in
  let profile = Walker.profile ~seed:9 prog in
  let native = (Pipeline.compile ~profile ~scheduler:Pipeline.Sched_none prog).Pipeline.mach in
  let local = (Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog).Pipeline.mach in
  let ta = Walker.trace_flat ~seed:9 ~max_instrs:5_000 native in
  let tb = Walker.trace_flat ~seed:9 ~max_instrs:5_000 local in
  let branch_dirs t =
    List.init (Flat_trace.length t) Fun.id
    |> List.filter_map (fun i ->
           if Flat_trace.is_cond_branch t i then Some (Flat_trace.branch_taken t i) else None)
  in
  let da = branch_dirs ta and db = branch_dirs tb in
  let n = min (List.length da) (List.length db) in
  let take k l = List.filteri (fun i _ -> i < k) l in
  check Alcotest.(list bool) "identical branch outcome sequence" (take n da) (take n db)

let trace_memory_payloads () =
  let m = compile (Spec92.program Spec92.Su2cor) in
  let tr = Walker.trace_flat ~max_instrs:3_000 m in
  for i = 0 to Flat_trace.length tr - 1 do
    let is_mem = Op.is_memory (Flat_trace.instr tr i).Mcsim_isa.Instr.op in
    check Alcotest.bool "address iff memory op" is_mem (Flat_trace.is_memory tr i)
  done

let trace_halts_cleanly () =
  let m = compile (loop_program 2) in
  let tr = Walker.trace_flat ~max_instrs:100 m in
  check Alcotest.int "stops at halt" 6 (Flat_trace.length tr)

let il_trace_length_consistent () =
  let p = loop_program 10 in
  (* 10 iterations x 3 slots + 0 exit slots. *)
  check Alcotest.int "Il trace length" 30 (Walker.il_trace_length p)

let profile_matches_trace_path =
  QCheck.Test.make ~name:"profile counts equal the traced block frequencies" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let prog =
        Synth.generate
          { (Spec92.params Spec92.Doduc) with Synth.seed = seed + 1; outer_trip = 40 }
      in
      let prof_a = Walker.profile ~seed:3 prog in
      let prof_b = Walker.profile ~seed:3 prog in
      (* Same seed, same counts - the profile pass is deterministic. *)
      let ok = ref true in
      for b = 0 to Program.num_blocks prog - 1 do
        if Profile.count prof_a b <> Profile.count prof_b b then ok := false
      done;
      !ok)

let suite =
  ( "trace",
    [ case "profile: loop counts" profile_counts_loop;
      case "profile: max_blocks cap" profile_max_blocks_caps;
      case "trace: loop contents" trace_loop_contents;
      case "trace: seq and pc assignment" trace_seq_and_pc;
      case "trace: max_instrs cap" trace_max_instrs;
      case "trace: deterministic" trace_deterministic;
      case "trace: seed changes the path" trace_seed_changes_path;
      case "trace: native and rescheduled share the path" trace_same_path_across_binaries;
      case "trace: memory payloads" trace_memory_payloads;
      case "trace: halts cleanly" trace_halts_cleanly;
      case "trace: IL trace length" il_trace_length_consistent;
      QCheck_alcotest.to_alcotest profile_matches_trace_path ] )
