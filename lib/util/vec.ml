type 'a t = { mutable arr : 'a array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.arr.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.arr.(i) <- x

let push t x =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    (* Grow using [x] as the fill element so no dummy value is needed. *)
    let arr = Array.make (max 8 (2 * cap)) x in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- x;
  t.len <- t.len + 1

let clear t = t.len <- 0

let remove_range t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Vec.remove_range";
  if len > 0 then begin
    Array.blit t.arr (pos + len) t.arr pos (t.len - pos - len);
    t.len <- t.len - len
  end

let filter_in_place keep t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.arr.(i) in
    if keep x then begin
      if !j < i then t.arr.(!j) <- x;
      incr j
    end
  done;
  t.len <- !j

let sort ~cmp t =
  for i = 1 to t.len - 1 do
    let x = t.arr.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp t.arr.(!j) x > 0 do
      t.arr.(!j + 1) <- t.arr.(!j);
      decr j
    done;
    t.arr.(!j + 1) <- x
  done
