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

(* ------------------------- pinned outputs --------------------------- *)

(* MD5 of the bytes a trace stores: pcs, then codes, then aux, each
   element little-endian. *)
let trace_digest t =
  let pcs, codes, aux = Flat_trace.unsafe_arrays t in
  let n = Flat_trace.length t in
  let b = Bytes.create (16 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le b (4 * i) pcs.{i};
    Bytes.set_int32_le b ((4 * n) + (4 * i)) codes.{i};
    Bytes.set_int64_le b ((8 * n) + (8 * i)) aux.{i}
  done;
  Digest.to_hex (Digest.bytes b)

let scheduler_of = function "none" -> Pipeline.Sched_none | _ -> Pipeline.default_local

(* (benchmark, scheduler, clusters, walker seed, length, digest) of the
   committed trace of each Table-2 binary and of the 4- and 8-cluster
   binaries. Every trace runs to its length; the 250 k one runs past
   the builder's old first capacity of 65 536. *)
let trace_pins =
  [
    ("compress", "none", 2, 1, 20000, "60ff4002bfdaccd6ffd57098e00556f8");
    ("compress", "none", 4, 1, 20000, "60ff4002bfdaccd6ffd57098e00556f8");
    ("compress", "none", 8, 1, 20000, "60ff4002bfdaccd6ffd57098e00556f8");
    ("compress", "local", 2, 1, 20000, "6c26cd441207db4a2173322b55c76555");
    ("compress", "local", 4, 1, 20000, "c6ae0ce69685391e2874e6f136ea45e7");
    ("compress", "local", 8, 1, 20000, "ac2c7cf3973573136eab1c61638fb236");
    ("doduc", "none", 2, 1, 20000, "0ced161b13c333deace861dee94fe07a");
    ("doduc", "none", 4, 1, 20000, "0ced161b13c333deace861dee94fe07a");
    ("doduc", "none", 8, 1, 20000, "0ced161b13c333deace861dee94fe07a");
    ("doduc", "local", 2, 1, 20000, "d9a375c46e3fec478a5c6ee733a985c8");
    ("doduc", "local", 4, 1, 20000, "36635666678e57debc3cffe377b6ab9d");
    ("doduc", "local", 8, 1, 20000, "62fe0a66293114f2c6625af353eec035");
    ("gcc1", "none", 2, 1, 20000, "2c8ed3ea8aac93fc500378d8fda483bd");
    ("gcc1", "none", 4, 1, 20000, "2c8ed3ea8aac93fc500378d8fda483bd");
    ("gcc1", "none", 8, 1, 20000, "2c8ed3ea8aac93fc500378d8fda483bd");
    ("gcc1", "local", 2, 1, 20000, "bad7d2dbbb8857dfab0d04e6c9d0d7f3");
    ("gcc1", "local", 4, 1, 20000, "237bdbfd8a4f006fa9a724c1fa852ea4");
    ("gcc1", "local", 8, 1, 20000, "e0ac48451841260ac3dbf68db8c88895");
    ("ora", "none", 2, 1, 20000, "6239a17b66d2d683ed4acb2fd43f5f16");
    ("ora", "none", 4, 1, 20000, "6239a17b66d2d683ed4acb2fd43f5f16");
    ("ora", "none", 8, 1, 20000, "6239a17b66d2d683ed4acb2fd43f5f16");
    ("ora", "local", 2, 1, 20000, "c76dbfa4de14961b2100aad369b45ac4");
    ("ora", "local", 4, 1, 20000, "27597da6003ec48e43ee5c14a9145d9a");
    ("ora", "local", 8, 1, 20000, "e00fe3de4ab5e7ec451746a24fe1d9d6");
    ("su2cor", "none", 2, 1, 20000, "a9ddd7d7675fe9ff19d621dae9cb868e");
    ("su2cor", "none", 4, 1, 20000, "a9ddd7d7675fe9ff19d621dae9cb868e");
    ("su2cor", "none", 8, 1, 20000, "a9ddd7d7675fe9ff19d621dae9cb868e");
    ("su2cor", "local", 2, 1, 20000, "7e90e1656ddc4eb17423a7b9a6419efb");
    ("su2cor", "local", 4, 1, 20000, "9c539026d9a98e99fd1fdc53f9b0aff5");
    ("su2cor", "local", 8, 1, 20000, "8616716287e120813b66ca72fb570bb6");
    ("tomcatv", "none", 2, 1, 20000, "edaf46c072b641a584a51b79b4d96489");
    ("tomcatv", "none", 4, 1, 20000, "edaf46c072b641a584a51b79b4d96489");
    ("tomcatv", "none", 8, 1, 20000, "edaf46c072b641a584a51b79b4d96489");
    ("tomcatv", "local", 2, 1, 20000, "56d07049cbb42cc9ef512f8699cefb2c");
    ("tomcatv", "local", 4, 1, 20000, "1f2a62321675f31fc2c2cf64bbff5b77");
    ("tomcatv", "local", 8, 1, 20000, "99224319191a1248855c5004f5b9440d");
    ("compress", "none", 2, 2, 20000, "092ed5cbda04cbd5a22a670e97e08a14");
    ("compress", "local", 2, 2, 20000, "58bba15b942e3f4a99cba4ee1614dd69");
    ("doduc", "none", 2, 2, 20000, "62b07d70dabe873a9c31491bc965e3d8");
    ("doduc", "local", 2, 2, 20000, "334583337ba5d827e105b277a1728ec5");
    ("gcc1", "none", 2, 2, 20000, "c2592b2fc94b9b9eb0df918246001f44");
    ("gcc1", "local", 2, 2, 20000, "9b41dc046d826790c951e7687c71ce81");
    ("ora", "none", 2, 2, 20000, "6239a17b66d2d683ed4acb2fd43f5f16");
    ("ora", "local", 2, 2, 20000, "c76dbfa4de14961b2100aad369b45ac4");
    ("su2cor", "none", 2, 2, 20000, "a9ddd7d7675fe9ff19d621dae9cb868e");
    ("su2cor", "local", 2, 2, 20000, "7e90e1656ddc4eb17423a7b9a6419efb");
    ("tomcatv", "none", 2, 2, 20000, "edaf46c072b641a584a51b79b4d96489");
    ("tomcatv", "local", 2, 2, 20000, "56d07049cbb42cc9ef512f8699cefb2c");
    ("compress", "none", 2, 1, 250000, "6bd74386b20ee7fcdbeaca99c19a13ad")
  ]

let traces_pinned () =
  List.iter
    (fun (name, sched, clusters, seed, max_instrs, digest) ->
      let bench = Option.get (Spec92.of_name name) in
      let t =
        Mcsim.Experiment.trace_of ~seed ~max_instrs (Spec92.program bench)
          { Mcsim.Experiment.clusters; scheduler = scheduler_of sched; unroll = 1 }
      in
      let what = Printf.sprintf "%s/%s/%dcl seed %d" name sched clusters seed in
      check Alcotest.int (what ^ ": length") max_instrs (Flat_trace.length t);
      check Alcotest.string what digest (trace_digest t))
    trace_pins

(* (benchmark, seed, MD5 of the comma-joined block counts). *)
let profile_pins =
  [
("compress", 1, "1ac37d2799335cebe001875099ce98b5");
    ("compress", 2, "aef7ec7f5427be68c215a5d707ff0cdd");
    ("doduc", 1, "05af987918ccae657c91bfa03daf07a7");
    ("doduc", 2, "7f1b23b44672bba0065bf9591d705f74");
    ("gcc1", 1, "9124a698ff02447caa730908271c21e2");
    ("gcc1", 2, "adbe8a8bb11b7e0a3f7cddd7614d9936");
    ("ora", 1, "02adff144745224939bbaf81d243771a");
    ("ora", 2, "02adff144745224939bbaf81d243771a");
    ("su2cor", 1, "34832feb6f77c51c973b32459a269ebc");
    ("su2cor", 2, "34832feb6f77c51c973b32459a269ebc");
    ("tomcatv", 1, "2692bf4ff876eb502c0ef1bf1803301a");
    ("tomcatv", 2, "2692bf4ff876eb502c0ef1bf1803301a")
  ]

let profiles_pinned () =
  List.iter
    (fun (name, seed, digest) ->
      let p = Walker.profile ~seed (Spec92.program (Option.get (Spec92.of_name name))) in
      let counts =
        List.init (Profile.num_blocks p) (fun b -> Printf.sprintf "%.0f" (Profile.count p b))
      in
      check Alcotest.string
        (Printf.sprintf "%s seed %d" name seed)
        digest
        (Digest.to_hex (Digest.string (String.concat "," counts))))
    profile_pins

(* --------------------------- allocation ----------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* The walk allocates per static instruction, never per dynamic one:
   0.25 words/instr leaves room for the per-block tables only. *)
let trace_walk_allocation () =
  let m = compile (Spec92.program Spec92.Compress) in
  let n = 120_000 in
  let t, words = minor_words (fun () -> Walker.trace_flat ~seed:1 ~max_instrs:n m) in
  check Alcotest.int "runs to max_instrs" n (Flat_trace.length t);
  let per_instr = words /. float_of_int n in
  if per_instr > 0.25 then
    Alcotest.failf "trace_flat allocated %.3f minor words/instr (gate 0.25)" per_instr

let profile_allocation () =
  let prog = Spec92.program Spec92.Compress in
  let _, words = minor_words (fun () -> Walker.profile ~seed:1 prog) in
  if words >= 10_000.0 then
    Alcotest.failf "profile allocated %.0f minor words (gate 10 000)" words

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
      case "trace: walked traces pinned" traces_pinned;
      case "profile: block counts pinned" profiles_pinned;
      case "trace: walk allocates per static instruction" trace_walk_allocation;
      case "profile: walk allocates per block" profile_allocation;
      Kit.qcheck profile_matches_trace_path ] )
