type t = {
  n : int;
  free_at : int array;  (* entry -> first cycle it is allocatable; -1 = in use *)
  mutable n_alloc : int;
  mutable in_use : int;
  mutable high : int;
}

let create ~entries =
  if entries < 1 then invalid_arg "Transfer_buffer.create";
  { n = entries; free_at = Array.make entries 0; n_alloc = 0; in_use = 0; high = 0 }

let entries t = t.n

let available t ~cycle =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.free_at.(i) >= 0 && t.free_at.(i) <= cycle then incr c
  done;
  !c

(* A top-level recursion: a local [find] closing over [t] and [cycle]
   would allocate on every forwarded operand and result. *)
let rec first_free t ~cycle i =
  if i = t.n then invalid_arg "Transfer_buffer.alloc: full"
  else if t.free_at.(i) >= 0 && t.free_at.(i) <= cycle then i
  else first_free t ~cycle (i + 1)

let alloc t ~cycle =
  let i = first_free t ~cycle 0 in
  t.free_at.(i) <- -1;
  t.n_alloc <- t.n_alloc + 1;
  t.in_use <- t.in_use + 1;
  if t.in_use > t.high then t.high <- t.in_use;
  i

let free t ~cycle i =
  if i < 0 || i >= t.n then invalid_arg "Transfer_buffer.free: bad entry";
  if t.free_at.(i) >= 0 then invalid_arg "Transfer_buffer.free: not in use";
  t.free_at.(i) <- cycle + 1;
  t.in_use <- t.in_use - 1

let clear t =
  for i = 0 to t.n - 1 do
    t.free_at.(i) <- 0
  done;
  t.in_use <- 0

let high_water t = t.high
let allocations t = t.n_alloc
