(* Tests for the McFarling predictor and the non-blocking cache. *)

module Mcfarling = Mcsim_branch.Mcfarling
module Cache = Mcsim_cache.Cache
module Rng = Mcsim_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* -------------------------- predictor ------------------------------ *)

(* Drive the predictor with immediate training (no lag). *)
let drive p outcomes ~pc =
  List.iter
    (fun taken ->
      let tok = Mcfarling.predict p ~pc in
      Mcfarling.note_outcome p ~taken;
      Mcfarling.train p tok ~taken)
    outcomes

let bp_biased_converges () =
  let p = Mcfarling.create () in
  drive p (List.init 200 (fun _ -> true)) ~pc:12;
  check Alcotest.bool "always-taken branch learned" true (Mcfarling.accuracy p > 0.95);
  check Alcotest.bool "predicts taken" true (Mcfarling.predicted_taken (Mcfarling.predict p ~pc:12))

let bp_pattern_learned_by_history () =
  (* A branch alternating T N T N ... is hopeless for bimodal counters but
     trivially captured by the global-history predictor + selector. *)
  let p = Mcfarling.create () in
  let outcomes = List.init 2000 (fun i -> i mod 2 = 0) in
  drive p outcomes ~pc:40;
  check Alcotest.bool "alternating branch above 90%" true (Mcfarling.accuracy p > 0.90)

let bp_period4_pattern () =
  let p = Mcfarling.create () in
  let outcomes = List.init 4000 (fun i -> i mod 4 <> 3) in
  drive p outcomes ~pc:8;
  check Alcotest.bool "TTTN pattern above 90%" true (Mcfarling.accuracy p > 0.90)

let bp_training_lag_visible () =
  (* With deferred training (tokens trained late), the tables cannot adapt
     to a flip as fast as with immediate training. *)
  let flip_each = 8 in
  let outcomes = List.init 4000 (fun i -> i / flip_each mod 2 = 0) in
  let run lag =
    let p = Mcfarling.create () in
    let pending = Queue.create () in
    List.iter
      (fun taken ->
        let tok = Mcfarling.predict p ~pc:16 in
        Mcfarling.note_outcome p ~taken;
        Queue.push (tok, taken) pending;
        if Queue.length pending > lag then begin
          let tok, taken = Queue.pop pending in
          Mcfarling.train p tok ~taken
        end)
      outcomes;
    Mcfarling.accuracy p
  in
  let immediate = run 0 and lagged = run 6 in
  check Alcotest.bool
    (Printf.sprintf "lag hurts (%.3f vs %.3f)" immediate lagged)
    true (lagged < immediate)

let bp_stats () =
  let p = Mcfarling.create () in
  drive p [ true; true; false ] ~pc:4;
  check Alcotest.int "predictions" 3 (Mcfarling.predictions p);
  check Alcotest.bool "some mispredictions" true (Mcfarling.mispredictions p >= 1);
  Mcfarling.reset_stats p;
  check Alcotest.int "reset" 0 (Mcfarling.predictions p);
  check (Alcotest.float 1e-9) "accuracy on empty" 1.0 (Mcfarling.accuracy p)

let bp_distinct_pcs_independent () =
  let p = Mcfarling.create () in
  drive p (List.init 100 (fun _ -> true)) ~pc:100;
  drive p (List.init 100 (fun _ -> false)) ~pc:228;
  let predicts pc = Mcfarling.predicted_taken (Mcfarling.predict p ~pc) in
  check Alcotest.bool "pc 100 taken" true (predicts 100);
  check Alcotest.bool "pc 228 not taken" false (predicts 228)

(* ---------------------------- cache -------------------------------- *)

let small_config =
  { Cache.size_bytes = 1024; assoc = 2; line_bytes = 32; miss_latency = 16; mshrs = None }

let cache_hit_after_fill () =
  let c = Cache.create small_config in
  let r1 = Cache.access c ~cycle:0 ~addr:64 ~write:false in
  check Alcotest.int "primary miss fills at +16" 16 r1;
  let r2 = Cache.access c ~cycle:20 ~addr:64 ~write:false in
  check Alcotest.int "hit after fill" 20 r2;
  check Alcotest.int "one miss" 1 (Cache.primary_misses c);
  check Alcotest.int "one hit" 1 (Cache.hits c)

let cache_same_line_merges () =
  let c = Cache.create small_config in
  let r1 = Cache.access c ~cycle:0 ~addr:64 ~write:false in
  let r2 = Cache.access c ~cycle:3 ~addr:72 ~write:false in
  check Alcotest.int "secondary miss gets primary's fill cycle" r1 r2;
  check Alcotest.int "secondary count" 1 (Cache.secondary_misses c);
  check Alcotest.int "no extra primary" 1 (Cache.primary_misses c)

let cache_unlimited_outstanding () =
  (* The inverted MSHR means any number of distinct lines can be in
     flight simultaneously. *)
  let c = Cache.create small_config in
  for i = 0 to 19 do
    let r = Cache.access c ~cycle:0 ~addr:(i * 32) ~write:false in
    check Alcotest.int "all miss in parallel" 16 r
  done;
  check Alcotest.int "20 primaries" 20 (Cache.primary_misses c)

let cache_lru_eviction () =
  let c = Cache.create small_config in
  (* 16 sets; lines mapping to set 0: addresses k * 16 * 32. *)
  let line k = k * 16 * 32 in
  ignore (Cache.access c ~cycle:0 ~addr:(line 0) ~write:false);
  ignore (Cache.access c ~cycle:20 ~addr:(line 1) ~write:false);
  (* Touch line 0 so line 1 is the LRU way. *)
  ignore (Cache.access c ~cycle:40 ~addr:(line 0) ~write:false);
  (* A third line in the set evicts line 1. *)
  ignore (Cache.access c ~cycle:60 ~addr:(line 2) ~write:false);
  let r0 = Cache.access c ~cycle:100 ~addr:(line 0) ~write:false in
  check Alcotest.int "line 0 still resident" 100 r0;
  let r1 = Cache.access c ~cycle:120 ~addr:(line 1) ~write:false in
  check Alcotest.bool "line 1 was evicted" true (r1 > 120)

let cache_write_allocates () =
  let c = Cache.create small_config in
  ignore (Cache.access c ~cycle:0 ~addr:256 ~write:true);
  let r = Cache.access c ~cycle:20 ~addr:256 ~write:false in
  check Alcotest.int "read hits after write-allocate" 20 r

let cache_miss_rate () =
  let c = Cache.create small_config in
  ignore (Cache.access c ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~cycle:20 ~addr:0 ~write:false);
  ignore (Cache.access c ~cycle:30 ~addr:0 ~write:false);
  ignore (Cache.access c ~cycle:40 ~addr:4096 ~write:false);
  check (Alcotest.float 1e-9) "2 misses / 4 accesses" 0.5 (Cache.miss_rate c);
  Cache.reset_stats c;
  check Alcotest.int "stats reset" 0 (Cache.accesses c)

let cache_probe () =
  let c = Cache.create small_config in
  check Alcotest.bool "cold probe" false (Cache.probe c ~addr:64);
  ignore (Cache.access c ~cycle:0 ~addr:64 ~write:false);
  check Alcotest.bool "in-flight probe" true (Cache.probe c ~addr:64)

let cache_monotone_cycles () =
  let c = Cache.create small_config in
  ignore (Cache.access c ~cycle:10 ~addr:0 ~write:false);
  Alcotest.check_raises "cycle goes backwards"
    (Invalid_argument "Cache.access: cycle went backwards") (fun () ->
      ignore (Cache.access c ~cycle:5 ~addr:0 ~write:false))

let cache_config_validation () =
  let bad c = try Cache.validate_config c; false with Invalid_argument _ -> true in
  check Alcotest.bool "non-pow2 line" true
    (bad { small_config with Cache.line_bytes = 24 });
  check Alcotest.bool "zero assoc" true (bad { small_config with Cache.assoc = 0 });
  check Alcotest.bool "non-pow2 sets" true
    (bad { small_config with Cache.size_bytes = 1024 + 64 });
  check Alcotest.bool "default config valid" true
    (try Cache.validate_config Cache.default_config; true with Invalid_argument _ -> false)

let cache_default_is_paper () =
  let c = Cache.default_config in
  check Alcotest.int "64 KB" (64 * 1024) c.Cache.size_bytes;
  check Alcotest.int "2-way" 2 c.Cache.assoc;
  check Alcotest.int "16-cycle memory" 16 c.Cache.miss_latency

let cache_limited_mshrs () =
  (* With 2 MSHRs, a third concurrent primary miss waits for the earliest
     fill before starting its own 16-cycle fetch. *)
  let c = Cache.create { small_config with Cache.mshrs = Some 2 } in
  let r1 = Cache.access c ~cycle:0 ~addr:0 ~write:false in
  let r2 = Cache.access c ~cycle:1 ~addr:64 ~write:false in
  let r3 = Cache.access c ~cycle:2 ~addr:128 ~write:false in
  check Alcotest.int "first miss" 16 r1;
  check Alcotest.int "second miss" 17 r2;
  check Alcotest.int "third waits for the first fill" 32 r3;
  check Alcotest.int "one stall recorded" 1 (Cache.mshr_stalls c);
  (* Secondary misses never consume an MSHR. *)
  let r4 = Cache.access c ~cycle:3 ~addr:130 ~write:false in
  check Alcotest.int "merge still free" r3 r4

let cache_inverted_never_stalls () =
  let c = Cache.create small_config in
  for i = 0 to 63 do
    ignore (Cache.access c ~cycle:0 ~addr:(i * 32) ~write:false)
  done;
  check Alcotest.int "inverted MSHR: no stalls" 0 (Cache.mshr_stalls c)

let cache_mshr_frees_over_time () =
  let c = Cache.create { small_config with Cache.mshrs = Some 1 } in
  ignore (Cache.access c ~cycle:0 ~addr:0 ~write:false);
  (* The fill completed by cycle 20, so the next miss starts fresh. *)
  let r = Cache.access c ~cycle:20 ~addr:64 ~write:false in
  check Alcotest.int "no stall after the fill" 36 r;
  check Alcotest.int "no stalls counted" 0 (Cache.mshr_stalls c)

let cache_ready_never_early =
  QCheck.Test.make ~name:"cache ready cycle is never before the access" ~count:200
    QCheck.(pair (int_bound 4096) (int_bound 50))
    (fun (addr, gap) ->
      let c = Cache.create small_config in
      let r1 = Cache.access c ~cycle:0 ~addr ~write:false in
      let r2 = Cache.access c ~cycle:gap ~addr:(addr + 8) ~write:false in
      r1 >= 0 && r2 >= gap)

let suite =
  ( "branch+cache",
    [ case "predictor: biased branch converges" bp_biased_converges;
      case "predictor: alternating pattern via global history" bp_pattern_learned_by_history;
      case "predictor: period-4 pattern" bp_period4_pattern;
      case "predictor: training lag hurts" bp_training_lag_visible;
      case "predictor: statistics" bp_stats;
      case "predictor: distinct pcs are independent" bp_distinct_pcs_independent;
      case "cache: hit after fill" cache_hit_after_fill;
      case "cache: same-line miss merges" cache_same_line_merges;
      case "cache: unlimited outstanding misses" cache_unlimited_outstanding;
      case "cache: LRU eviction" cache_lru_eviction;
      case "cache: write allocates" cache_write_allocates;
      case "cache: miss rate and reset" cache_miss_rate;
      case "cache: probe" cache_probe;
      case "cache: cycles must be monotone" cache_monotone_cycles;
      case "cache: config validation" cache_config_validation;
      case "cache: paper default config" cache_default_is_paper;
      case "cache: limited MSHRs stall (ISCA'94)" cache_limited_mshrs;
      case "cache: inverted MSHR never stalls" cache_inverted_never_stalls;
      case "cache: MSHRs free over time" cache_mshr_frees_over_time;
      QCheck_alcotest.to_alcotest cache_ready_never_early ] )
