type bank = B_int | B_fp

let bank_of_reg r = if Mcsim_isa.Reg.is_int r then B_int else B_fp

type bank_state = {
  freelist : Mcsim_util.Freelist.t;
  map : int array;  (* architectural index -> physical register *)
  ready : int array;  (* physical register -> ready cycle; max_int = pending *)
}

type t = {
  int_bank : bank_state;
  fp_bank : bank_state;
  n_phys : int;
}

let make_bank num_phys =
  let freelist = Mcsim_util.Freelist.create ~size:num_phys in
  let map = Array.make 32 (-1) in
  let ready = Array.make num_phys 0 in
  for a = 0 to 31 do
    match Mcsim_util.Freelist.alloc freelist with
    | Some p -> map.(a) <- p
    | None -> assert false
  done;
  { freelist; map; ready }

let create ~num_phys =
  if num_phys < 32 then invalid_arg "Regfile.create: num_phys < 32";
  if num_phys > 0x10000 then invalid_arg "Regfile.create: num_phys > 65536";
  { int_bank = make_bank num_phys; fp_bank = make_bank num_phys; n_phys = num_phys }

let num_phys t = t.n_phys

let bank_state t = function B_int -> t.int_bank | B_fp -> t.fp_bank

let free_count t b = Mcsim_util.Freelist.available (bank_state t b).freelist

let lookup t reg =
  if Mcsim_isa.Reg.is_zero reg then invalid_arg "Regfile.lookup: zero register";
  let bs = bank_state t (bank_of_reg reg) in
  bs.map.(Mcsim_isa.Reg.index reg)

let rename t reg =
  if Mcsim_isa.Reg.is_zero reg then invalid_arg "Regfile.rename: zero register";
  let bs = bank_state t (bank_of_reg reg) in
  match Mcsim_util.Freelist.alloc bs.freelist with
  | None -> None
  | Some p ->
    let a = Mcsim_isa.Reg.index reg in
    let prev = bs.map.(a) in
    bs.map.(a) <- p;
    bs.ready.(p) <- max_int;
    Some (p, prev)

(* Identical to [rename] but writes nothing to the heap: physical ids fit
   in 16 bits ([create] enforces it), so both halves of the result pack
   into one immediate int for the dispatch hot path. *)
let rename_packed t reg =
  if Mcsim_isa.Reg.is_zero reg then invalid_arg "Regfile.rename_packed: zero register";
  let bs = bank_state t (bank_of_reg reg) in
  let p = Mcsim_util.Freelist.take bs.freelist in
  if p < 0 then -1
  else begin
    let a = Mcsim_isa.Reg.index reg in
    let prev = bs.map.(a) in
    bs.map.(a) <- p;
    bs.ready.(p) <- max_int;
    (p lsl 16) lor prev
  end

let undo_rename t reg ~new_phys ~prev_phys =
  let bs = bank_state t (bank_of_reg reg) in
  let a = Mcsim_isa.Reg.index reg in
  assert (bs.map.(a) = new_phys);
  bs.map.(a) <- prev_phys;
  Mcsim_util.Freelist.free bs.freelist new_phys

let release t b phys = Mcsim_util.Freelist.free (bank_state t b).freelist phys

let ready_at t b phys = (bank_state t b).ready.(phys)
let set_ready t b phys cycle = (bank_state t b).ready.(phys) <- cycle
