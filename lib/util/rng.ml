(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Chosen because it is trivially splittable,
   passes BigCrush, and needs only one 64-bit word of state. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t n =
  assert (n > 0);
  (* Mask to 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod n

let float t x =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

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
