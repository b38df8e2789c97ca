(* Tests for Mcsim_util (rng, stats, text_table) and for the machine's
   freelist and deque. *)

module Rng = Mcsim_util.Rng
module Freelist = Mcsim_cluster.Machine.Freelist
module Deque = Mcsim_cluster.Machine.Deque
module Stats = Mcsim_util.Stats
module Text_table = Mcsim_util.Text_table

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ---------------------------- rng ---------------------------------- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let rng_float_range () =
  let r = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let rng_split_independent () =
  let root = Rng.create 5 in
  let a = Rng.split root in
  let b = Rng.split root in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "split streams do not coincide" true (!same < 4)

let rng_copy_continues () =
  let a = Rng.create 6 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues in lockstep" (Rng.bits64 a) (Rng.bits64 b)

let rng_bernoulli_frequency () =
  let r = Rng.create 8 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "bernoulli(0.3) frequency" true (f > 0.27 && f < 0.33)

let rng_weighted_index () =
  let r = Rng.create 10 in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 30_000 do
    let i = Rng.weighted_index r [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero-weight bucket never drawn" 0 counts.(1);
  check Alcotest.bool "3:1 ratio roughly holds" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.5)

let rng_pick_covers () =
  let r = Rng.create 11 in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Rng.pick r [| 0; 1; 2; 3 |]) <- true
  done;
  check Alcotest.bool "all elements picked eventually" true (Array.for_all Fun.id seen)

let rng_shuffle_permutation () =
  let r = Rng.create 12 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

(* The published SplitMix64 test vectors for seed 1234567: any change
   to the generator's state update or mixing function moves them. *)
let rng_reference_vectors () =
  let r = Rng.create 1234567 in
  List.iter
    (fun expected -> check Alcotest.string "bits64" expected (Printf.sprintf "%Lu" (Rng.bits64 r)))
    [ "6457827717110365317"; "3203168211198807973"; "9817491932198370423";
      "4593380528125082431"; "16408922859458223821" ]

(* Every derived draw, pinned: branch outcomes, addresses and workloads
   all come from these, so a changed bit would move every trace. *)
let rng_draws_pinned () =
  let r = Rng.create 42 in
  let ints = List.init 6 (fun _ -> Rng.int r 1_000_003) in
  let big = List.init 3 (fun _ -> Rng.int r max_int) in
  let floats = List.init 4 (fun _ -> Printf.sprintf "%h" (Rng.float r 2.5)) in
  let bools = List.init 8 (fun _ -> Rng.bool r) in
  let bern = List.init 8 (fun _ -> Rng.bernoulli r 0.3) in
  let child = Rng.split r in
  let child_bits = List.init 3 (fun _ -> Printf.sprintf "%Lu" (Rng.bits64 child)) in
  let after = List.init 3 (fun _ -> Rng.int r 100) in
  check Alcotest.(list int) "int" [ 447975; 791068; 442972; 304401; 479651; 938870 ] ints;
  check Alcotest.(list int) "int max_int"
    [ 1007216178194406231; 3692262831746943977; 1567655219403120501 ] big;
  check Alcotest.(list string) "float"
    [ "0x1.8bd41a0c67beap+0"; "0x1.06463b7454c78p-1"; "0x1.3b835923acb7cp+0";
      "0x1.4892d1d7be1bap+0" ]
    floats;
  check Alcotest.(list bool) "bool" [ true; false; false; true; true; true; false; false ] bools;
  check Alcotest.(list bool) "bernoulli" [ true; false; false; true; true; false; false; false ]
    bern;
  check Alcotest.(list string) "split child"
    [ "3908199894741369296"; "15774990085767003688"; "8122739883699608056" ]
    child_bits;
  check Alcotest.(list int) "parent after split" [ 25; 95; 23 ] after

(* The trace walker draws once per branch and memory instruction, so
   [int], [bool] and [bernoulli] must not box their 64-bit intermediate. *)
let rng_draws_do_not_allocate () =
  let r = Rng.create 13 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 1000;
    if Rng.bool r then incr acc;
    if Rng.bernoulli r 0.5 then incr acc
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool "some draws counted" true (!acc > 0);
  if words > 100.0 then Alcotest.failf "30 000 draws allocated %.0f minor words" words

(* ------------------------- slab object pool ------------------------ *)

(* [Freelist] hands out slots; the caller keeps one record per slot, as
   the machine's copy and group arrays do, or one register, as its
   register banks do. *)

let slab_alloc_free_reset () =
  let p = Freelist.create ~initial:2 () in
  let a = Freelist.alloc p in
  let b = Freelist.alloc p in
  check Alcotest.int "distinct slots" 1 (abs (a - b));
  check Alcotest.int "live" 2 (Freelist.live p);
  check Alcotest.int "built" 2 (Freelist.built p);
  Freelist.free p a;
  check Alcotest.int "live after free" 1 (Freelist.live p);
  check Alcotest.bool "freed slot not in use" false (Freelist.in_use p a);
  (* LIFO recycling: the freed slot comes back, not a fresh one. *)
  let a' = Freelist.alloc p in
  check Alcotest.int "recycled the freed slot" a a';
  check Alcotest.int "no growth on recycle" 2 (Freelist.built p);
  (* Freeing every slot resets the pool: nothing live, built slots kept. *)
  Freelist.free p a';
  Freelist.free p b;
  check Alcotest.int "reset: nothing live" 0 (Freelist.live p);
  check Alcotest.int "reset keeps built slots" 2 (Freelist.built p);
  let c = Freelist.alloc p in
  check Alcotest.bool "post-reset alloc reuses a built slot" true (c = a || c = b)

let slab_growth () =
  let p = Freelist.create ~initial:2 () in
  let slots = Array.init 100 (fun _ -> Freelist.alloc p) in
  check Alcotest.int "built tracks demand" 100 (Freelist.built p);
  (* Fresh slots are dense, so a caller's record array grows in step. *)
  check Alcotest.(array int) "slots handed out in order" (Array.init 100 Fun.id) slots;
  Array.iter (Freelist.free p) slots;
  check Alcotest.int "all returned" 0 (Freelist.live p)

(* A slot carries no trace of the pool that handed it out, so the
   nearest check to a foreign object is a slot this pool never handed
   out. *)
let slab_errors () =
  let p = Freelist.create () in
  let a = Freelist.alloc p in
  Freelist.free p a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Freelist.free: double free") (fun () -> Freelist.free p a);
  let q = Freelist.create () in
  for _ = 1 to 3 do
    ignore (Freelist.alloc q)
  done;
  Alcotest.check_raises "a slot only another pool has handed out"
    (Invalid_argument "Freelist.free: not from this pool") (fun () ->
      Freelist.free p 2);
  Alcotest.check_raises "the no-copy sentinel"
    (Invalid_argument "Freelist.free: not from this pool") (fun () ->
      Freelist.free p (-1));
  check Alcotest.bool "never-handed-out slot not in use" false (Freelist.in_use p 2)

let slab_invariant =
  QCheck.Test.make ~name:"slab pool never double-allocates a live object" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let p = Freelist.create ~initial:1 () in
      let held = ref [] in
      List.iter
        (fun is_alloc ->
          if is_alloc then begin
            let o = Freelist.alloc p in
            assert (not (List.mem o !held));
            held := o :: !held
          end
          else
            match !held with
            | o :: rest ->
              Freelist.free p o;
              held := rest
            | [] -> ())
        ops;
      Freelist.live p = List.length !held
      && List.for_all (Freelist.in_use p) !held
      && Freelist.built p <= List.length ops + 1)

(* ---------------------------- deque -------------------------------- *)

let dq_both_ends () =
  let d = Deque.create () in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_back d 3;
  check Alcotest.int "front" 1 (Deque.front d);
  check Alcotest.int "back" 3 (Deque.back d);
  check Alcotest.int "pop back" 3 (Deque.pop_back d);
  check Alcotest.int "pop front" 1 (Deque.pop_front d);
  check Alcotest.int "length" 1 (Deque.length d);
  ignore (Deque.pop_front d);
  Alcotest.check_raises "pop empty" (Invalid_argument "Deque.pop_front") (fun () ->
      ignore (Deque.pop_front d))

let dq_grow () =
  let d = Deque.create () in
  for i = 0 to 99 do Deque.push_back d i done;
  check Alcotest.int "length 100" 100 (Deque.length d);
  for i = 0 to 99 do
    check Alcotest.int "get in order" i (Deque.get d i)
  done;
  Alcotest.check_raises "get out of range" (Invalid_argument "Deque.get") (fun () ->
      ignore (Deque.get d 100))

let dq_iter_order () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 5; 6; 7 ];
  ignore (Deque.pop_front d);
  Deque.push_back d 8;
  let acc = ref [] in
  Deque.iter (fun x -> acc := x :: !acc) d;
  check Alcotest.(list int) "iter oldest-to-newest" [ 6; 7; 8 ] (List.rev !acc)

(* The fetch buffer and the branch-training queue cycle ints through one
   ring without growing it: positions wrap past the end of the backing
   array while order is kept. *)
let dq_wraparound () =
  let d = Deque.create () in
  for i = 1 to 16 do Deque.push_back d i done;
  for round = 0 to 39 do
    check Alcotest.int "oldest first" (round + 1) (Deque.pop_front d);
    Deque.push_back d (round + 17)
  done;
  check Alcotest.int "still 16" 16 (Deque.length d);
  check Alcotest.(list int) "wrapped order" (List.init 16 (fun i -> i + 41))
    (List.init 16 (Deque.get d));
  Deque.clear d;
  check Alcotest.bool "cleared" true (Deque.is_empty d)

let dq_model =
  QCheck.Test.make ~name:"deque behaves like a list" ~count:300
    QCheck.(list (pair (int_bound 2) small_int))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
            Deque.push_back d v;
            model := !model @ [ v ]
          | 1 -> (
            match !model with
            | y :: rest -> assert (Deque.pop_front d = y); model := rest
            | [] -> assert (Deque.is_empty d))
          | _ -> (
            match List.rev !model with
            | y :: rest -> assert (Deque.pop_back d = y); model := List.rev rest
            | [] -> assert (Deque.is_empty d)))
        ops;
      Deque.length d = List.length !model)

(* ---------------------------- stats -------------------------------- *)

let stats_counters () =
  let c = Stats.counters_create () in
  Stats.incr c "a";
  Stats.incr c "a";
  Stats.add c "b" 5;
  check Alcotest.int "a" 2 (Stats.get c "a");
  check Alcotest.int "b" 5 (Stats.get c "b");
  check Alcotest.int "missing" 0 (Stats.get c "zzz");
  check Alcotest.(list (pair string int)) "alist sorted" [ ("a", 2); ("b", 5) ]
    (Stats.to_alist c)

(* Sample statistics vs independent straight-line references. *)

let samples = QCheck.(list_of_size Gen.(int_range 0 40) (float_bound_inclusive 1000.0))

let close a b =
  Float.abs (a -. b) <= 1e-9 +. (1e-9 *. Float.max (Float.abs a) (Float.abs b))

let naive_mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let naive_variance xs =
  let m = naive_mean xs in
  List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
  /. float_of_int (List.length xs - 1)

let stats_mean_matches_naive =
  QCheck.Test.make ~name:"stats: mean matches the naive sum" ~count:300 samples (fun xs ->
      let got = Stats.mean (Array.of_list xs) in
      if xs = [] then got = 0.0 else close got (naive_mean xs))

let stats_variance_matches_naive =
  QCheck.Test.make ~name:"stats: variance matches the two-pass formula" ~count:300 samples
    (fun xs ->
      let got = Stats.variance (Array.of_list xs) in
      if List.length xs < 2 then got = 0.0 else close got (naive_variance xs))

let stats_ci_matches_naive =
  QCheck.Test.make ~name:"stats: confidence interval = t * stderr around the mean" ~count:300
    samples (fun xs ->
      QCheck.assume (List.length xs >= 2);
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let m, h = Stats.confidence_interval arr in
      let expect =
        Stats.t_critical ~df:(n - 1) () *. sqrt (naive_variance xs /. float_of_int n)
      in
      close m (naive_mean xs) && close h expect && h >= 0.0)

let stats_t_critical () =
  (* Wider for smaller samples, wider for higher confidence, and the
     normal quantiles in the large-df limit. *)
  check Alcotest.bool "df=1 wider than df=5" true
    (Stats.t_critical ~df:1 () > Stats.t_critical ~df:5 ());
  check Alcotest.bool "df=5 wider than df=1000" true
    (Stats.t_critical ~df:5 () > Stats.t_critical ~df:1000 ());
  check Alcotest.bool "99% wider than 95%" true
    (Stats.t_critical ~confidence:0.99 ~df:10 () > Stats.t_critical ~confidence:0.95 ~df:10 ());
  check Alcotest.bool "95% wider than 90%" true
    (Stats.t_critical ~confidence:0.95 ~df:10 () > Stats.t_critical ~confidence:0.90 ~df:10 ());
  check (Alcotest.float 1e-6) "normal limit at 95%" 1.960 (Stats.t_critical ~df:100_000 ());
  check (Alcotest.float 1e-3) "classic t(0.975, 10)" 2.228 (Stats.t_critical ~df:10 ());
  Alcotest.check_raises "df must be positive" (Invalid_argument "Stats.t_critical: df < 1")
    (fun () -> ignore (Stats.t_critical ~df:0 ()));
  (match Stats.t_critical ~confidence:0.42 ~df:10 () with
  | _ -> Alcotest.fail "untabulated confidence should raise"
  | exception Invalid_argument _ -> ());
  match Stats.confidence_interval [| 1.0 |] with
  | _ -> Alcotest.fail "singleton has no confidence interval"
  | exception Invalid_argument _ -> ()

(* -------------------------- text_table ----------------------------- *)

let tt_render () =
  let s = Text_table.render [ [ "h1"; "h2" ]; [ "a"; "bbbb" ]; [ "cc" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "4 lines + trailing" 5 (List.length lines);
  check Alcotest.string "header" "h1  h2" (List.nth lines 0);
  check Alcotest.string "rule" "--  ----" (List.nth lines 1);
  check Alcotest.string "padded row" "a   bbbb" (List.nth lines 2);
  check Alcotest.string "short row" "cc" (List.nth lines 3)

let tt_align_right () =
  let s =
    Text_table.render ~aligns:[| Text_table.Left; Text_table.Right |]
      [ [ "x"; "num" ]; [ "a"; "7" ] ]
  in
  check Alcotest.bool "right-aligned number" true
    (String.split_on_char '\n' s |> fun l -> List.nth l 2 = "a    7")

let tt_empty () = check Alcotest.string "empty table" "" (Text_table.render [])

let suite =
  ( "util",
    [ case "rng: deterministic from seed" rng_deterministic;
      case "rng: seed sensitivity" rng_seed_sensitivity;
      case "rng: int in range" rng_int_range;
      case "rng: float in range" rng_float_range;
      case "rng: split independence" rng_split_independent;
      case "rng: copy continues stream" rng_copy_continues;
      case "rng: bernoulli frequency" rng_bernoulli_frequency;
      case "rng: weighted index" rng_weighted_index;
      case "rng: pick covers all" rng_pick_covers;
      case "rng: shuffle is a permutation" rng_shuffle_permutation;
      case "rng: SplitMix64 reference vectors" rng_reference_vectors;
      case "rng: derived draws pinned" rng_draws_pinned;
      case "rng: draws do not allocate" rng_draws_do_not_allocate;
      case "slab pool: alloc/free/reset recycling" slab_alloc_free_reset;
      case "slab pool: geometric growth" slab_growth;
      case "slab pool: double free and foreign objects" slab_errors;
      Kit.qcheck slab_invariant;
      case "deque: both ends" dq_both_ends;
      case "deque: growth and indexing" dq_grow;
      case "deque: iteration order" dq_iter_order;
      case "deque: wraparound" dq_wraparound;
      Kit.qcheck dq_model;
      case "stats: counters" stats_counters;
      Kit.qcheck stats_mean_matches_naive;
      Kit.qcheck stats_variance_matches_naive;
      Kit.qcheck stats_ci_matches_naive;
      case "stats: t critical values" stats_t_critical;
      case "text_table: render" tt_render;
      case "text_table: right align" tt_align_right;
      case "text_table: empty" tt_empty ] )
