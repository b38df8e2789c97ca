type 'a t = {
  mutable buckets : 'a Vec.t array; (* length is a power of two *)
  mutable floor : int;
  mutable count : int;
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ?(capacity = 64) () =
  let cap = round_pow2 (max 1 capacity) in
  { buckets = Array.init cap (fun _ -> Vec.create ()); floor = 0; count = 0 }

let length t = t.count
let is_empty t = t.count = 0
let floor t = t.floor

(* Pending keys all lie in [floor, floor + old_cap), so each old bucket
   holds entries for exactly one key: relocate whole buckets, no copying. *)
let grow t needed =
  let old_cap = Array.length t.buckets in
  let cap = round_pow2 needed in
  let buckets = Array.make cap (Vec.create ()) in
  let taken = Array.make cap false in
  for k = t.floor to t.floor + old_cap - 1 do
    let slot = k land (cap - 1) in
    buckets.(slot) <- t.buckets.(k land (old_cap - 1));
    taken.(slot) <- true
  done;
  for i = 0 to cap - 1 do
    if not taken.(i) then buckets.(i) <- Vec.create ()
  done;
  t.buckets <- buckets

let add t ~key x =
  if key < t.floor then
    invalid_arg
      (Printf.sprintf "Bucket_queue.add: key %d below floor %d" key t.floor);
  let cap = Array.length t.buckets in
  if key - t.floor >= cap then grow t (key - t.floor + 1);
  Vec.push t.buckets.(key land (Array.length t.buckets - 1)) x;
  t.count <- t.count + 1

let drain_upto t ~key f =
  if t.count = 0 then begin
    if key >= t.floor then t.floor <- key + 1
  end
  else begin
    while t.floor <= key do
      (* Recompute the mask every round: the callback may [add] far enough
         ahead to grow (and thus replace) the bucket array. *)
      let b = t.buckets.(t.floor land (Array.length t.buckets - 1)) in
      (* Index loop: the callback may push into later buckets but not
         into [b], so the live length is fixed. *)
      let n = Vec.length b in
      for i = 0 to n - 1 do
        f (Vec.get b i)
      done;
      t.count <- t.count - n;
      Vec.clear b;
      t.floor <- t.floor + 1;
      if t.count = 0 && t.floor <= key then t.floor <- key + 1
    done
  end

(* Drained buckets are cleared, so every stored entry is pending. *)
let exists t p =
  let rec in_bucket b i = i < Vec.length b && (p (Vec.get b i) || in_bucket b (i + 1)) in
  Array.exists (fun b -> in_bucket b 0) t.buckets
