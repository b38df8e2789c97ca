type t = {
  free_ids : int array; (* stack of free identifiers; first [top] valid *)
  in_use : bool array;
  mutable top : int;
}

let create ~size =
  assert (size >= 0);
  { free_ids = Array.init size (fun i -> i); in_use = Array.make size false; top = size }

let size t = Array.length t.in_use
let available t = t.top

let take t =
  if t.top = 0 then -1
  else begin
    t.top <- t.top - 1;
    let id = t.free_ids.(t.top) in
    t.in_use.(id) <- true;
    id
  end

let alloc t =
  let id = take t in
  if id < 0 then None else Some id

let free t id =
  if id < 0 || id >= size t then invalid_arg "Freelist.free: out of range";
  if not t.in_use.(id) then invalid_arg "Freelist.free: double free";
  t.in_use.(id) <- false;
  t.free_ids.(t.top) <- id;
  t.top <- t.top + 1

let reset t =
  t.top <- size t;
  for i = 0 to size t - 1 do
    t.free_ids.(i) <- i;
    t.in_use.(i) <- false
  done

(* ------------------------------------------------------------------ *)
(* Slab-backed object pool                                             *)
(* ------------------------------------------------------------------ *)

module Slab = struct
  type 'a t = {
    make : int -> 'a;
    slot : 'a -> int;
    filler : 'a;  (* occupies unbuilt slots; never handed out *)
    mutable objs : 'a array;  (* slot -> object; first [built] constructed *)
    mutable built : int;
    mutable free_ids : int array;  (* stack of recycled slots; first [top] valid *)
    mutable top : int;
    mutable in_use : Bytes.t;  (* '\001' = handed out *)
    mutable live : int;
  }

  let create ?(initial = 64) ~make ~slot () =
    if initial < 1 then invalid_arg "Freelist.Slab.create: initial < 1";
    let filler = make (-1) in
    { make; slot; filler;
      objs = Array.make initial filler;
      built = 0;
      free_ids = Array.make initial 0;
      top = 0;
      in_use = Bytes.make initial '\000';
      live = 0 }

  let live t = t.live
  let built t = t.built
  let capacity t = Array.length t.objs

  let grow t =
    let cap = Array.length t.objs in
    let ncap = 2 * cap in
    let nobjs = Array.make ncap t.filler in
    Array.blit t.objs 0 nobjs 0 cap;
    t.objs <- nobjs;
    let nfree = Array.make ncap 0 in
    Array.blit t.free_ids 0 nfree 0 cap;
    t.free_ids <- nfree;
    let nuse = Bytes.make ncap '\000' in
    Bytes.blit t.in_use 0 nuse 0 cap;
    t.in_use <- nuse

  let alloc t =
    let id =
      if t.top > 0 then begin
        t.top <- t.top - 1;
        t.free_ids.(t.top)
      end
      else begin
        if t.built = Array.length t.objs then grow t;
        let id = t.built in
        t.objs.(id) <- t.make id;
        t.built <- t.built + 1;
        id
      end
    in
    Bytes.set t.in_use id '\001';
    t.live <- t.live + 1;
    t.objs.(id)

  let free t o =
    let id = t.slot o in
    if id < 0 || id >= t.built || not (t.objs.(id) == o) then
      invalid_arg "Freelist.Slab.free: not from this pool";
    if Bytes.get t.in_use id = '\000' then invalid_arg "Freelist.Slab.free: double free";
    Bytes.set t.in_use id '\000';
    t.free_ids.(t.top) <- id;
    t.top <- t.top + 1;
    t.live <- t.live - 1

  let reset t =
    Bytes.fill t.in_use 0 (Bytes.length t.in_use) '\000';
    for i = 0 to t.built - 1 do
      t.free_ids.(i) <- i
    done;
    t.top <- t.built;
    t.live <- 0
end
