(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Chosen because it is trivially splittable,
   passes BigCrush, and needs only one 64-bit word of state. *)

(* The 64-bit state lives unboxed in 8 bytes of its own: a mutable
   [int64] field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

(* The next output shifted right by [shift], as a native int: every
   derived draw reads it through here, so no [int64] leaves this
   function and none is boxed. [shift] >= 1 keeps the value
   non-negative; [shift] = 0 keeps only the low 63 bits. *)
let next t shift = Int64.to_int (Int64.shift_right_logical (bits64 t) shift)

let split t = of_state (bits64 t)

(* 62 bits, so the value stays non-negative in OCaml's 63-bit int. *)
let int t n =
  assert (n > 0);
  next t 2 mod n

(* 53 random bits into [0,1). *)
let[@inline] unit_float t = float_of_int (next t 11) /. 9007199254740992.0

let float t x = unit_float t *. x

let bool t = next t 0 land 1 = 1

let bernoulli t p = unit_float t < p

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let weighted_index t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  assert (total > 0.0);
  let x = float t total in
  let n = Array.length w in
  let rec loop i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else loop (i + 1) acc
  in
  loop 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
