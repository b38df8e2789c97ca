(* Tests for the flat binary trace representation and the on-disk trace
   store: encode/decode round-trips, O(1) sub views, the store's
   hit/miss/corruption behaviour, key invalidation, and the safety
   invariant that simulating a cached (memory-mapped) trace is
   indistinguishable from simulating the freshly walked one — on every
   stock machine configuration. *)

module Flat_trace = Mcsim_isa.Flat_trace
module Instr = Mcsim_isa.Instr
module Op = Mcsim_isa.Op_class
module Reg = Mcsim_isa.Reg
module Walker = Mcsim_trace.Walker
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Trace_store = Mcsim.Trace_store
module Experiment = Mcsim.Experiment

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let temp_dir () = Filename.temp_dir "mcsim-test-tracestore" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let bench_trace ?(bench = Spec92.Compress) ?(scheduler = Pipeline.default_local)
    ?(seed = 1) ?(max_instrs = 5_000) () =
  let prog = Spec92.program bench in
  let profile = Walker.profile ~seed prog in
  let c = Pipeline.compile ~profile ~scheduler prog in
  Walker.trace_flat ~seed ~max_instrs c.Pipeline.mach

(* --------------------------- flat trace ----------------------------- *)

(* Re-emitting a walked trace through the builder, position by position
   from its accessors, reproduces it exactly. *)
let flat_roundtrip () =
  let flat = bench_trace () in
  check Alcotest.int "non-trivial" 5_000 (Flat_trace.length flat);
  Trace_kit.check_equal "roundtrip" flat (Trace_kit.of_list (Trace_kit.items flat))

(* Hand-written instructions of every class and payload read back as
   emitted, and the class predicates agree with the decoded instruction
   at every position of a walked trace. *)
let flat_accessors_match_records () =
  let r = Reg.int_reg and f = Reg.fp_reg in
  let cond taken target = { Instr.conditional = true; taken; target } in
  let hand =
    [ Trace_kit.mk ~pc:0 Op.Int_other [ r 1; r 2 ] (Some (r 3));
      Trace_kit.mk ~pc:1 ~mem_addr:0x1238 Op.Load [ Reg.sp ] (Some (f 4));
      Trace_kit.mk ~pc:2 ~mem_addr:0x7ffffff0 Op.Store [ r 5; Reg.gp ] None;
      Trace_kit.mk ~pc:3 ~branch:(cond true 0) Op.Control [ r 3 ] None;
      Trace_kit.mk ~pc:4 ~branch:(cond false 9) Op.Control [] None;
      Trace_kit.mk ~pc:5 ~branch:{ Instr.conditional = false; taken = true; target = 2 }
        Op.Control [] None;
      Trace_kit.mk ~pc:6 (Op.Fp_divide { bits64 = true }) [ f 1; f 2 ] (Some (f 0));
      Trace_kit.mk ~pc:7 Op.Int_multiply [ Reg.zero_int ] (Some (r 31)) ]
  in
  let t = Trace_kit.of_list hand in
  List.iteri
    (fun i it ->
      if Trace_kit.item t i <> it then Alcotest.failf "hand-written instruction %d differs" i)
    hand;
  let flat = bench_trace () in
  for i = 0 to Flat_trace.length flat - 1 do
    let op = (Flat_trace.instr flat i).Instr.op in
    check Alcotest.bool "load" (op = Op.Load) (Flat_trace.is_load flat i);
    check Alcotest.bool "store" (op = Op.Store) (Flat_trace.is_store flat i);
    check Alcotest.bool "memory" (Op.is_memory op) (Flat_trace.is_memory flat i);
    check Alcotest.bool "branch" (op = Op.Control) (Flat_trace.has_branch flat i);
    if Flat_trace.is_cond_branch flat i then
      check Alcotest.bool "conditional implies branch" true (Flat_trace.has_branch flat i)
  done

let flat_instr_interned () =
  let flat = bench_trace () in
  let n = Flat_trace.length flat in
  (* The same pc decodes to the physically same Instr.t every time — the
     identity the machine's plan memo keys on. *)
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let pc = Flat_trace.pc flat i in
    let ins = Flat_trace.instr flat i in
    match Hashtbl.find_opt tbl pc with
    | None -> Hashtbl.add tbl pc ins
    | Some prev ->
      if not (prev == ins) then Alcotest.failf "pc %d decoded to a fresh instr" pc
  done

let flat_sub_view () =
  let flat = bench_trace () in
  let pos = 1_234 and len = 800 in
  let sub = Flat_trace.sub flat ~pos ~len in
  check Alcotest.int "sub length" len (Flat_trace.length sub);
  let window = List.filteri (fun i _ -> i >= pos && i < pos + len) (Trace_kit.items flat) in
  Trace_kit.check_equal "sub re-based" (Trace_kit.of_list window) sub;
  (* Views share the intern table with the parent. *)
  check Alcotest.bool "interned across views" true
    (Flat_trace.instr sub 0 == Flat_trace.instr flat pos)

(* The intern table is built eagerly at construction and never written
   afterwards, so several domains may decode the same trace at once —
   Experiment's sweeps simulate one trace on many domains. This would be
   an intermittent crash with a lazily-populated table. *)
let flat_decode_parallel_safe () =
  let flat = bench_trace () in
  let expected = bench_trace () in
  let worker () = Trace_kit.of_list (Trace_kit.items flat) in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d -> Trace_kit.check_equal "parallel decode" expected (Domain.join d))
    domains

let builder_validates () =
  let b = Flat_trace.Builder.create () in
  let add = Instr.make ~op:Op.Int_other ~srcs:[ Reg.int_reg 1 ] ~dst:(Some (Reg.int_reg 2)) in
  Alcotest.check_raises "mem_addr on non-memory"
    (Invalid_argument "Flat_trace: address on non-memory op") (fun () ->
      Flat_trace.Builder.emit b ~pc:0 ~mem_addr:4 add);
  Alcotest.check_raises "branch on non-control"
    (Invalid_argument "Flat_trace: branch info on non-control op") (fun () ->
      Flat_trace.Builder.emit b ~pc:0
        ~branch:{ Instr.conditional = true; taken = true; target = 3 }
        add);
  let load = Instr.make ~op:Op.Load ~srcs:[ Reg.int_reg 1 ] ~dst:(Some (Reg.int_reg 2)) in
  Alcotest.check_raises "load without mem_addr"
    (Invalid_argument "Flat_trace: memory op without address") (fun () ->
      Flat_trace.Builder.emit b ~pc:0 load);
  let ctl = Instr.make ~op:Op.Control ~srcs:[] ~dst:None in
  Alcotest.check_raises "control without branch info"
    (Invalid_argument "Flat_trace: control op without branch info") (fun () ->
      Flat_trace.Builder.emit b ~pc:0 ctl);
  Alcotest.check_raises "both payloads"
    (Invalid_argument "Flat_trace: both an address and branch info") (fun () ->
      Flat_trace.Builder.emit b ~pc:0 ~mem_addr:4
        ~branch:{ Instr.conditional = false; taken = true; target = 3 }
        ctl);
  (* The writer takes only encoded words, and only the dynamic bits
     those words carry. *)
  let add_code = Flat_trace.Builder.(encode No_payload add) in
  Alcotest.check_raises "taken on a non-branch"
    (Invalid_argument "Flat_trace: taken bit on a non-branch") (fun () ->
      Flat_trace.Builder.write b add_code ~pc:0 ~taken:true ~aux:0);
  Alcotest.check_raises "aux without payload"
    (Invalid_argument "Flat_trace: aux on a word without payload") (fun () ->
      Flat_trace.Builder.write b add_code ~pc:0 ~taken:false ~aux:8);
  check Alcotest.int "nothing emitted" 0 (Flat_trace.Builder.length b);
  (* Matching payloads are kept. *)
  let br = { Instr.conditional = true; taken = false; target = 9 } in
  Flat_trace.Builder.emit b ~pc:0 ~mem_addr:64 load;
  Flat_trace.Builder.emit b ~pc:4 ~branch:br ctl;
  let t = Flat_trace.Builder.finish b in
  check Alcotest.(option int) "address kept" (Some 64) (Trace_kit.item t 0).Trace_kit.mem_addr;
  check Alcotest.bool "branch kept" true ((Trace_kit.item t 1).Trace_kit.branch = Some br)

(* ----------------------------- store -------------------------------- *)

let key ?(benchmark = "compress") ?(scheduler = "local:2:0") ?(seed = 1)
    ?(max_instrs = 5_000) () =
  { Trace_store.benchmark; scheduler; seed; max_instrs }

let store_miss_then_hit () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k = key () in
  check Alcotest.bool "initially absent" true (Trace_store.find store k = None);
  let builds = ref 0 in
  let build () = incr builds; bench_trace () in
  let t1, s1 = Trace_store.load_or_build store k build in
  check Alcotest.bool "first is a miss" true (s1 = `Miss);
  let t2, s2 = Trace_store.load_or_build store k build in
  check Alcotest.bool "second is a hit" true (s2 = `Hit);
  check Alcotest.int "built exactly once" 1 !builds;
  Trace_kit.check_equal "cached equals built" t1 t2

(* A hit maps the file and validates it in place: its cost is per file,
   not per instruction. On each benchmark's 200 k-instruction trace it
   allocates a few thousand words in total (0.015-0.052 words/instr),
   where profiling, compiling and walking the same trace costs 0.5-2.2
   words/instr, nearly all of it in the compiler; any per-instruction
   decode on the hit path breaks the 0.1 bound. *)
let store_hit_allocates_per_file () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let n = 200_000 in
  List.iter
    (fun bench ->
      let name = Spec92.name bench in
      let k = key ~benchmark:name ~max_instrs:n () in
      Trace_store.save store k (bench_trace ~bench ~max_instrs:n ());
      let w0 = Gc.minor_words () in
      let hit = Trace_store.find store k in
      let wpi = (Gc.minor_words () -. w0) /. float_of_int n in
      (match hit with
      | Some t -> check Alcotest.int (name ^ ": hit length") n (Flat_trace.length t)
      | None -> Alcotest.failf "%s: the saved trace missed" name);
      if wpi > 0.1 then
        Alcotest.failf "%s: a store hit allocated %.3f words/instr (bound 0.1)" name wpi)
    Spec92.all

let store_corrupt_recomputes () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k = key () in
  let _ = Trace_store.load_or_build store k (fun () -> bench_trace ()) in
  let file = Trace_store.path store k in
  (* Flip one payload byte: the digest check must reject the file. *)
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 100 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd;
  check Alcotest.bool "corrupt file reads as absent" true
    (Trace_store.find store k = None);
  let t, s = Trace_store.load_or_build store k (fun () -> bench_trace ()) in
  check Alcotest.bool "corruption forces a rebuild" true (s = `Miss);
  (* The rebuild overwrote the damaged file. *)
  check Alcotest.bool "store repaired" true (Trace_store.find store k <> None);
  Trace_kit.check_equal "rebuilt trace intact" (bench_trace ()) t

let store_truncated_recomputes () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k = key () in
  let _ = Trace_store.load_or_build store k (fun () -> bench_trace ()) in
  let file = Trace_store.path store k in
  let size = (Unix.stat file).Unix.st_size in
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  check Alcotest.bool "truncated file reads as absent" true
    (Trace_store.find store k = None)

(* The file name only carries a 32-bit digest prefix of the key, but the
   full key is stored in the file and compared on load: a digest-prefix
   collision (simulated here by copying a valid file onto another key's
   path) must read as a miss, never as the wrong trace. *)
let store_wrong_key_is_a_miss () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k1 = key () and k2 = key ~seed:2 () in
  let _ = Trace_store.load_or_build store k1 (fun () -> bench_trace ()) in
  let read file =
    In_channel.with_open_bin file In_channel.input_all
  in
  Out_channel.with_open_bin (Trace_store.path store k2) (fun oc ->
      Out_channel.output_string oc (read (Trace_store.path store k1)));
  check Alcotest.bool "other key's bytes read as a miss" true
    (Trace_store.find store k2 = None);
  check Alcotest.bool "own key still hits" true (Trace_store.find store k1 <> None)

let store_key_invalidation () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k = key () in
  let _ = Trace_store.load_or_build store k (fun () -> bench_trace ()) in
  (* A different seed, budget, scheduler or benchmark is a different
     file — never a false hit. *)
  List.iter
    (fun (what, k') ->
      check Alcotest.bool (what ^ " changes the path") true
        (Trace_store.path store k <> Trace_store.path store k');
      check Alcotest.bool (what ^ " misses") true (Trace_store.find store k' = None))
    [ ("seed", key ~seed:2 ());
      ("max_instrs", key ~max_instrs:6_000 ());
      ("scheduler", key ~scheduler:"none" ());
      ("benchmark", key ~benchmark:"ora" ()) ];
  check Alcotest.bool "original still hits" true (Trace_store.find store k <> None)

let store_entries_listing () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  check Alcotest.int "empty store" 0 (List.length (Trace_store.entries store));
  let k1 = key () and k2 = key ~seed:2 () in
  let _ = Trace_store.load_or_build store k1 (fun () -> bench_trace ()) in
  let _ = Trace_store.load_or_build store k2 (fun () -> bench_trace ~seed:2 ()) in
  let entries = Trace_store.entries store in
  check Alcotest.int "two entries" 2 (List.length entries);
  (* Same header + payload size; the key trailer lengths happen to match
     too (seed 1 vs seed 2 are both one digit). *)
  let expect_bytes = 32 + (16 * 5_000) + String.length (Trace_store.key_string k1) in
  List.iter
    (fun e ->
      check Alcotest.bool "valid" true e.Trace_store.e_valid;
      check Alcotest.int "instrs" 5_000 e.Trace_store.e_instrs;
      check Alcotest.int "bytes" expect_bytes e.Trace_store.e_bytes)
    entries;
  (* Damage one: it lists as invalid but stays listed. *)
  let file = Filename.concat dir (List.hd entries).Trace_store.e_file in
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 40 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\x01" 0 1);
  Unix.close fd;
  let entries' = Trace_store.entries store in
  check Alcotest.int "still two entries" 2 (List.length entries');
  check Alcotest.int "one invalid" 1
    (List.length (List.filter (fun e -> not e.Trace_store.e_valid) entries'))

let scheduler_idents_distinct () =
  let idents =
    List.map Experiment.scheduler_ident
      [ Pipeline.Sched_none; Pipeline.default_local;
        Pipeline.Sched_local { imbalance_threshold = 3 };
        Pipeline.Sched_round_robin; Pipeline.Sched_random 7; Pipeline.Sched_random 8 ]
  in
  check Alcotest.int "all distinct" (List.length idents)
    (List.length (List.sort_uniq String.compare idents))

(* ------------------------ cached == fresh ---------------------------- *)

let results_equal what (a : Machine.result) (b : Machine.result) =
  check Alcotest.int (what ^ ": cycles") a.Machine.cycles b.Machine.cycles;
  check Alcotest.int (what ^ ": retired") a.Machine.retired b.Machine.retired;
  check Alcotest.int (what ^ ": replays") a.Machine.replays b.Machine.replays;
  check
    Alcotest.(list (pair string int))
    (what ^ ": counters") a.Machine.counters b.Machine.counters

(* QCheck: for random (seed, budget), reloading the trace through the
   store is invisible — same instructions, and the machine takes the
   same cycles over the mapped copy as over the fresh walk. *)
let cached_replay_equals_fresh_walk =
  QCheck.Test.make ~name:"cached replay equals fresh walk" ~count:8
    QCheck.(pair (int_bound 1000) (int_bound 3_000))
    (fun (seed_off, n_off) ->
      let seed = 1 + seed_off and max_instrs = 1_000 + n_off in
      with_dir @@ fun dir ->
      let store = Trace_store.open_ ~dir in
      let k = key ~seed ~max_instrs () in
      let fresh = bench_trace ~seed ~max_instrs () in
      let first, s1 = Trace_store.load_or_build store k (fun () -> fresh) in
      let cached, s2 =
        Trace_store.load_or_build store k (fun () -> Alcotest.fail "unexpected rebuild")
      in
      check Alcotest.bool "miss then hit" true (s1 = `Miss && s2 = `Hit);
      Trace_kit.check_equal "instructions" first cached;
      let cfg = Machine.dual_cluster () in
      results_equal "simulation" (Machine.run_flat cfg fresh) (Machine.run_flat cfg cached);
      true)

(* The plan memo must be invisible on every stock configuration: a
   store-reloaded trace (memory-mapped, interned afresh) runs exactly as
   the walked one. *)
let stock_configs_cached_equals_fresh () =
  with_dir @@ fun dir ->
  let store = Trace_store.open_ ~dir in
  let k = key ~max_instrs:4_000 () in
  let fresh = bench_trace ~max_instrs:4_000 () in
  let _ = Trace_store.load_or_build store k (fun () -> fresh) in
  let cached =
    match Trace_store.find store k with Some t -> t | None -> Alcotest.fail "no hit"
  in
  List.iter
    (fun (name, cfg) ->
      results_equal (name ^ " cached") (Machine.run_flat cfg fresh)
        (Machine.run_flat cfg cached))
    [ ("8-wide/1cl", Machine.config_for_clusters 1);
      ("8-wide/2cl", Machine.config_for_clusters 2);
      ("8-wide/4cl", Machine.config_for_clusters 4);
      ("4-wide/1cl", Machine.config_for_clusters ~width:4 1);
      ("4-wide/2cl", Machine.config_for_clusters ~width:4 2) ]

(* A sweep whose traces are all in the store walks no profile. The rerun
   keeps compress's name, so every trace hits, but empties its blocks, so
   a profile walk would raise; its rows equal the first run's. *)
let all_hit_sweep_walks_no_profile () =
  with_dir @@ fun dir ->
  let m = Mcsim.Table2.matrix ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] () in
  let first = Experiment.get_all (Experiment.run ~trace_cache:dir m) in
  let hollow =
    List.map (fun p -> { p with Mcsim_ir.Program.blocks = [||] }) m.Experiment.programs
  in
  (match Walker.profile ~seed:m.Experiment.seed (List.hd hollow) with
  | _ -> Alcotest.fail "an empty program's profile walk succeeded"
  | exception Invalid_argument _ -> ());
  let again = Experiment.get_all (Experiment.run ~trace_cache:dir { m with programs = hollow }) in
  check Alcotest.bool "rows equal the first run's" true (first = again)

(* A pc reused by two different static instructions (possible in
   hand-built traces, not in walker output) must not confuse the plan
   memo, which keys on instruction identity, not pc alone. *)
let plan_memo_survives_pc_collision () =
  let mk op srcs dst = Instr.make ~op ~srcs ~dst in
  let a = mk Op.Int_other [ Reg.int_reg 1 ] (Some (Reg.int_reg 2)) in
  let b = mk Op.Int_multiply [ Reg.int_reg 3; Reg.int_reg 4 ] (Some (Reg.int_reg 5)) in
  let trace =
    Trace_kit.init 40 (fun i ->
        { Trace_kit.pc = 7; instr = (if i mod 2 = 0 then a else b); mem_addr = None;
          branch = None })
  in
  let cfg = Machine.dual_cluster () in
  let r = Machine.run_flat cfg trace in
  check Alcotest.int "all retired" 40 r.Machine.retired;
  results_equal "deterministic" r (Machine.run_flat cfg trace)

let suite =
  ( "trace_store",
    [ case "flat trace round-trips via Builder" flat_roundtrip;
      case "flat accessors match the record fields" flat_accessors_match_records;
      case "instruction decode is interned per pc" flat_instr_interned;
      case "sub is an O(1) re-based view" flat_sub_view;
      case "decoding is safe across concurrent domains" flat_decode_parallel_safe;
      case "builder validates every payload" builder_validates;
      case "load_or_build: miss builds, hit maps" store_miss_then_hit;
      case "a hit allocates per file, not per instruction" store_hit_allocates_per_file;
      case "corrupt payload is detected and rebuilt" store_corrupt_recomputes;
      case "truncated file reads as absent" store_truncated_recomputes;
      case "a colliding file under another key misses" store_wrong_key_is_a_miss;
      case "seed/budget/scheduler/benchmark changes never false-hit"
        store_key_invalidation;
      case "entries lists and validates the store" store_entries_listing;
      case "scheduler idents separate tuned variants" scheduler_idents_distinct;
      Kit.qcheck cached_replay_equals_fresh_walk;
      case "stock configs: cached == fresh" stock_configs_cached_equals_fresh;
      case "an all-hit sweep walks no profile" all_hit_sweep_walks_no_profile;
      case "plan memo keys on instruction identity, not pc"
        plan_memo_survives_pc_collision ] )
