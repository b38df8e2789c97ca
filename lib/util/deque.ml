(* The backing array starts empty and grows, by doubling from 16, using
   the pushed element as its fill, so no dummy value (and no option box)
   is needed; its length is a power of two, so positions wrap with a
   mask. Popped slots are not cleared: see the interface. *)
type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
}

let create () = { buf = [||]; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.buf in
  let nbuf = Array.make (max 16 (cap * 2)) x in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- nbuf;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.buf then grow t x;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then invalid_arg "Deque.pop_front";
  let x = t.buf.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let pop_back t =
  if t.len = 0 then invalid_arg "Deque.pop_back";
  t.len <- t.len - 1;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1))

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get";
  t.buf.((t.head + i) land (Array.length t.buf - 1))

let front t = get t 0
let back t = get t (t.len - 1)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let clear t =
  t.head <- 0;
  t.len <- 0
