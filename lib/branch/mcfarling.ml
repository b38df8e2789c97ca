type config = {
  bimodal_bits : int;
  global_bits : int;
  choice_bits : int;
  history_bits : int;
}

let default_config = { bimodal_bits = 12; global_bits = 12; choice_bits = 12; history_bits = 12 }

(* Two-bit saturating counters stored as ints 0..3; >=2 means taken (for
   direction tables) or "use global" (for the choice table). *)
type t = {
  config : config;
  pc_bits : int;  (* pc bits a token keeps: enough to index bimodal and choice *)
  bimodal : int array;
  global : int array;
  choice : int array;
  mutable history : int;
  mutable n_predictions : int;
  mutable n_mispredictions : int;
}

let create ?(config = default_config) () =
  let pc_bits = max config.bimodal_bits config.choice_bits in
  if 3 + config.global_bits + pc_bits > Sys.int_size - 1 then
    invalid_arg "Mcfarling.create: tables too large for a packed token";
  let table bits = Array.make (1 lsl bits) 1 in
  { config;
    pc_bits;
    bimodal = table config.bimodal_bits;
    global = table config.global_bits;
    choice = table config.choice_bits;
    history = 0;
    n_predictions = 0;
    n_mispredictions = 0 }

let mask bits v = v land ((1 lsl bits) - 1)

(* A token packs everything [train] needs into one non-negative int:
   bit 0 the prediction, bit 1 the bimodal component's, bit 2 the gshare
   component's, then the gshare index ([global_bits] wide), then the low
   pc bits that index the bimodal and selector tables. *)
let predict t ~pc =
  let c = t.config in
  let global_ix = mask c.global_bits (pc lxor t.history) in
  let pred_bimodal = t.bimodal.(mask c.bimodal_bits pc) >= 2 in
  let pred_global = t.global.(global_ix) >= 2 in
  let prediction = if t.choice.(mask c.choice_bits pc) >= 2 then pred_global else pred_bimodal in
  (((mask t.pc_bits pc lsl c.global_bits) lor global_ix) lsl 3)
  lor (if pred_global then 4 else 0)
  lor (if pred_bimodal then 2 else 0)
  lor if prediction then 1 else 0

let predicted_taken tok = tok land 1 = 1

let note_outcome t ~taken =
  t.history <- mask t.config.history_bits ((t.history lsl 1) lor if taken then 1 else 0)

let bump table ix up =
  let v = table.(ix) in
  if up then (if v < 3 then table.(ix) <- v + 1) else if v > 0 then table.(ix) <- v - 1

let train t tok ~taken =
  let c = t.config in
  let pred_bimodal = tok land 2 <> 0 and pred_global = tok land 4 <> 0 in
  let pc = tok lsr (3 + c.global_bits) in
  t.n_predictions <- t.n_predictions + 1;
  if predicted_taken tok <> taken then t.n_mispredictions <- t.n_mispredictions + 1;
  bump t.bimodal (mask c.bimodal_bits pc) taken;
  bump t.global (mask c.global_bits (tok lsr 3)) taken;
  (* The selector trains only when the two component predictions differ,
     moving toward whichever component was right (McFarling's rule). *)
  if pred_bimodal <> pred_global then bump t.choice (mask c.choice_bits pc) (pred_global = taken)

let predictions t = t.n_predictions
let mispredictions t = t.n_mispredictions

let accuracy t =
  if t.n_predictions = 0 then 1.0
  else 1.0 -. (float_of_int t.n_mispredictions /. float_of_int t.n_predictions)

let reset_stats t =
  t.n_predictions <- 0;
  t.n_mispredictions <- 0
