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

(* The cache as it was before each way recorded its line's fill: every
   access looks its line up in the in-flight table first. Kept as the
   model [Cache.access] must match exactly: return values, counters,
   [probe], and the table's insert/remove sequence, which the
   MSHR-limited path's [Hashtbl.fold] tie order reads. *)
module Ref_cache = struct
  type t = {
    cfg : Cache.config;
    num_sets : int;
    tags : int array;
    last_use : int array;
    in_flight : (int, int) Hashtbl.t;
    mutable stamp : int;
    mutable last_cycle : int;
    mutable n_accesses : int;
    mutable n_hits : int;
    mutable n_primary : int;
    mutable n_secondary : int;
    mutable n_mshr_stalls : int;
  }

  let create (cfg : Cache.config) =
    let num_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
    { cfg; num_sets;
      tags = Array.make (num_sets * cfg.assoc) (-1);
      last_use = Array.make (num_sets * cfg.assoc) 0;
      in_flight = Hashtbl.create 64;
      stamp = 0; last_cycle = 0;
      n_accesses = 0; n_hits = 0; n_primary = 0; n_secondary = 0; n_mshr_stalls = 0 }

  let find_way t set tag =
    let base = set * t.cfg.assoc in
    let rec go s = if s = base + t.cfg.assoc then -1 else if t.tags.(s) = tag then s else go (s + 1) in
    go base

  let touch t slot =
    t.stamp <- t.stamp + 1;
    t.last_use.(slot) <- t.stamp

  let install t set tag =
    let base = set * t.cfg.assoc in
    let victim = ref base in
    for w = 0 to t.cfg.assoc - 1 do
      let s = base + w in
      if t.tags.(s) = -1 && t.tags.(!victim) <> -1 then victim := s
      else if t.tags.(s) <> -1 && t.tags.(!victim) <> -1 && t.last_use.(s) < t.last_use.(!victim)
      then victim := s
    done;
    t.tags.(!victim) <- tag;
    touch t !victim

  let access t ~cycle ~addr =
    t.last_cycle <- cycle;
    t.n_accesses <- t.n_accesses + 1;
    let line = addr / t.cfg.line_bytes in
    let set = line land (t.num_sets - 1) in
    let tag = line / t.num_sets in
    match Hashtbl.find_opt t.in_flight line with
    | Some fill when cycle < fill ->
      t.n_secondary <- t.n_secondary + 1;
      fill
    | completed ->
      if Option.is_some completed then Hashtbl.remove t.in_flight line;
      let slot = find_way t set tag in
      if slot >= 0 then begin
        t.n_hits <- t.n_hits + 1;
        touch t slot;
        cycle
      end
      else begin
        t.n_primary <- t.n_primary + 1;
        install t set tag;
        let start =
          match t.cfg.mshrs with
          | None -> cycle
          | Some n ->
            Hashtbl.iter
              (fun l fill -> if fill <= cycle then Hashtbl.remove t.in_flight l)
              (Hashtbl.copy t.in_flight);
            let rec wait cycle =
              if Hashtbl.length t.in_flight < n then cycle
              else
                match
                  Hashtbl.fold
                    (fun l fill acc ->
                      match acc with Some (_, f) when f <= fill -> acc | _ -> Some (l, fill))
                    t.in_flight None
                with
                | Some (l, fill) ->
                  t.n_mshr_stalls <- t.n_mshr_stalls + 1;
                  Hashtbl.remove t.in_flight l;
                  wait (max cycle fill)
                | None -> cycle
            in
            wait cycle
        in
        let fill = start + t.cfg.miss_latency in
        Hashtbl.replace t.in_flight line fill;
        fill
      end

  let probe t ~addr =
    let line = addr / t.cfg.line_bytes in
    (match Hashtbl.find_opt t.in_flight line with
    | Some fill -> fill > t.last_cycle
    | None -> false)
    || find_way t (line land (t.num_sets - 1)) (line / t.num_sets) >= 0

  let counters t = [ t.n_accesses; t.n_hits; t.n_primary; t.n_secondary; t.n_mshr_stalls ]
end

let counters c =
  [ Cache.accesses c; Cache.hits c; Cache.primary_misses c; Cache.secondary_misses c;
    Cache.mshr_stalls c ]

(* Four sets of two 32-byte ways: [lines] lines compete for them, so
   lines are evicted while their fills are pending. *)
let tiny mshrs =
  { Cache.size_bytes = 256; assoc = 2; line_bytes = 32; miss_latency = 16; mshrs }

(* Drive the cache and the model through the same accesses, failing on
   the first return value, counter or probe that differs. *)
let agree_with_model ?(lines = 24) cfg accesses =
  let c = Cache.create cfg and m = Ref_cache.create cfg in
  List.iteri
    (fun i (cycle, addr) ->
      let got = Cache.access c ~cycle ~addr ~write:false in
      let want = Ref_cache.access m ~cycle ~addr in
      if got <> want then
        Alcotest.failf "access %d (cycle %d, addr %d): cache %d, model %d" i cycle addr got want;
      if counters c <> Ref_cache.counters m then
        Alcotest.failf "access %d: counters differ from the model" i;
      for l = 0 to lines - 1 do
        if Cache.probe c ~addr:(l * 32) <> Ref_cache.probe m ~addr:(l * 32) then
          Alcotest.failf "access %d: probe of line %d differs from the model" i l
      done)
    accesses

let cache_matches_model =
  QCheck.Test.make ~name:"cache = hashtable-only model on random streams" ~count:300
    QCheck.(
      pair
        (oneofl [ None; Some 1; Some 2; Some 4; Some 8 ])
        (list_of_size Gen.(int_range 1 200) (pair (int_bound 3) (int_bound (24 * 32 - 1)))))
    (fun (mshrs, steps) ->
      (* Most gaps are 0 or 1 cycle, so misses share a cycle and fills
         stay pending across many accesses. *)
      let _, accesses =
        List.fold_left
          (fun (cycle, acc) (gap, addr) ->
            let cycle = cycle + if gap = 3 then 9 else gap in
            (cycle, (cycle, addr) :: acc))
          (0, []) steps
      in
      agree_with_model (tiny mshrs) (List.rev accesses);
      true)

(* Line [l] of the tiny cache lives in set [l mod 4]. *)
let line l = l * 32

let cache_secondary_resident () =
  let accesses = [ (0, line 0); (5, line 0) ] in
  agree_with_model (tiny None) accesses;
  let c = Cache.create (tiny None) in
  check Alcotest.int "primary" 16 (Cache.access c ~cycle:0 ~addr:(line 0) ~write:false);
  check Alcotest.int "merged into the pending fill" 16
    (Cache.access c ~cycle:5 ~addr:(line 0) ~write:false);
  check Alcotest.(list int) "accesses, hits, primary, secondary, stalls" [ 2; 0; 1; 1; 0 ]
    (counters c)

let cache_secondary_evicted () =
  (* Lines 0, 4 and 8 share set 0: line 8 evicts line 0 before its fill
     at 16, and line 0's next access still merges into that fill. *)
  let accesses = [ (0, line 0); (1, line 4); (2, line 8); (3, line 0) ] in
  agree_with_model (tiny None) accesses;
  let c = Cache.create (tiny None) in
  List.iter (fun (cycle, addr) -> ignore (Cache.access c ~cycle ~addr ~write:false))
    [ (0, line 0); (1, line 4); (2, line 8) ];
  check Alcotest.bool "line 0 evicted, still in flight" true (Cache.probe c ~addr:(line 0));
  check Alcotest.int "merged into the evicted line's fill" 16
    (Cache.access c ~cycle:3 ~addr:(line 0) ~write:false);
  check Alcotest.(list int) "accesses, hits, primary, secondary, stalls" [ 4; 0; 3; 1; 0 ]
    (counters c)

let cache_hit_after_fill_drops () =
  let accesses = [ (0, line 0); (20, line 0); (21, line 0); (22, line 4); (23, line 8) ] in
  agree_with_model (tiny (Some 1)) accesses;
  let c = Cache.create (tiny None) in
  ignore (Cache.access c ~cycle:0 ~addr:(line 0) ~write:false);
  check Alcotest.int "hit after the fill" 20 (Cache.access c ~cycle:20 ~addr:(line 0) ~write:false);
  check Alcotest.int "and after that" 21 (Cache.access c ~cycle:21 ~addr:(line 0) ~write:false);
  check Alcotest.(list int) "accesses, hits, primary, secondary, stalls" [ 3; 2; 1; 0; 0 ]
    (counters c)

let cache_mshr_evicts_resident () =
  (* One MSHR: line 1's miss at cycle 1 finds line 0's fill (16)
     pending, evicts that entry and starts at 16. Line 0 stays resident
     with no entry left, so its next access is a hit at once, as a table
     lookup would find. *)
  let accesses = [ (0, line 0); (1, line 1); (2, line 0) ] in
  agree_with_model (tiny (Some 1)) accesses;
  let c = Cache.create (tiny (Some 1)) in
  check Alcotest.int "line 0" 16 (Cache.access c ~cycle:0 ~addr:(line 0) ~write:false);
  check Alcotest.int "line 1 waits for line 0's fill" 32
    (Cache.access c ~cycle:1 ~addr:(line 1) ~write:false);
  check Alcotest.int "line 0 hits at the access cycle" 2
    (Cache.access c ~cycle:2 ~addr:(line 0) ~write:false);
  check Alcotest.(list int) "accesses, hits, primary, secondary, stalls" [ 3; 1; 2; 0; 1 ]
    (counters c)

(* Under the inverted MSHR nothing else drops the in-flight entry of a
   line touched once: 10,000 such misses, each filled before the next,
   leave the table bounded by the cache's 8 lines, not one entry per
   miss. *)
let cache_in_flight_bounded () =
  let c = Cache.create (tiny None) in
  for i = 0 to 9_999 do
    ignore (Cache.access c ~cycle:(20 * i) ~addr:(line i) ~write:false)
  done;
  check Alcotest.int "every access a primary miss" 10_000 (Cache.primary_misses c);
  let words = Obj.reachable_words (Obj.repr c) in
  if words >= 2_000 then Alcotest.failf "the cache holds %d words after 10,000 misses" words

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
      Kit.qcheck cache_ready_never_early;
      Kit.qcheck cache_matches_model;
      case "cache: secondary miss on a resident pending line" cache_secondary_resident;
      case "cache: secondary miss on a line evicted before its fill" cache_secondary_evicted;
      case "cache: hit after the fill" cache_hit_after_fill_drops;
      case "cache: one MSHR evicts a resident line's fill" cache_mshr_evicts_resident;
      case "cache: in-flight table bounded by the line count" cache_in_flight_bounded ] )
