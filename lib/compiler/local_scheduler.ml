module Il = Mcsim_ir.Il
module Program = Mcsim_ir.Program
module Profile = Mcsim_ir.Profile

let block_order prog profile =
  let ids = List.init (Program.num_blocks prog) (fun i -> i) in
  let size b = Array.length prog.Program.blocks.(b).Program.instrs in
  let cmp a b =
    let ca = Profile.count profile a and cb = Profile.count profile b in
    if ca <> cb then compare cb ca
    else
      let sa = size a and sb = size b in
      if sa <> sb then compare sb sa else compare a b
  in
  List.sort cmp ids

(* The operands of the "instruction" at (block, index). Index =
   [Array.length instrs] designates the block's conditional terminator. *)
let operands prog (b, k) =
  let blk = prog.Program.blocks.(b) in
  if k < Array.length blk.Program.instrs then
    let i = blk.Program.instrs.(k) in
    (Il.lrs_read i, Il.lrs_written i)
  else
    match blk.Program.term with
    | Il.Cond { src = Some lr; _ } -> ([ lr ], [])
    | Il.Cond { src = None; _ } | Il.Fallthrough _ | Il.Jump _ | Il.Halt -> ([], [])

type ctx = {
  prog : Program.t;
  profile : Profile.t;
  live : Liveness.t;
  part : Partition.t;
  n_clusters : int;
  counted : bool array array;  (* per (block, slot): contribution recorded *)
  weights : float array;  (* profile-weighted instructions bound per cluster *)
  mutable order : Il.lr list;  (* reverse assignment order *)
}

(* Clusters an instruction is pinned to under the current (partial)
   assignment: [None] when an operand is still undecided, [Some []] when
   the instruction is free to go to either cluster (neutral for balance),
   [Some [c]] single-distributed to [c], [Some [0; 1]] dual. *)
let distribution_of ctx (reads, writes) =
  let placement lr =
    if ctx.part.Partition.global_candidate.(lr) then Some `Global
    else
      match ctx.part.Partition.choice.(lr) with
      | Partition.Cluster c -> Some (`Local c)
      | Partition.Unconstrained -> None
  in
  if not (List.for_all (fun lr -> placement lr <> None) (reads @ writes)) then None
  else begin
    let dst_placement = match writes with [] -> None | lr :: _ -> placement lr in
    let readable_in c =
      List.for_all
        (fun lr ->
          match placement lr with
          | Some (`Local c') -> c = c'
          | Some `Global | None -> true)
        reads
    in
    let single c =
      readable_in c
      && match dst_placement with
         | None -> true
         | Some (`Local c') -> c = c'
         | Some `Global -> false
    in
    let singles = List.filter single (List.init ctx.n_clusters Fun.id) in
    match singles with
    | [] -> Some (List.init ctx.n_clusters Fun.id)  (* multi-distributed *)
    | [ c ] -> Some [ c ]
    | _ :: _ :: _ -> Some []  (* distributable anywhere: balance-neutral *)
  end

(* Record the balance contribution of every site of [lr] whose
   distribution has just become fully determined. *)
let update_balance ctx lr =
  let sites = Liveness.def_sites ctx.live lr @ Liveness.use_sites ctx.live lr in
  List.iter
    (fun ((b, k) as site) ->
      if not ctx.counted.(b).(k) then
        match distribution_of ctx (operands ctx.prog site) with
        | Some clusters ->
          ctx.counted.(b).(k) <- true;
          let w = 1.0 +. Profile.count ctx.profile b in
          List.iter (fun c -> ctx.weights.(c) <- ctx.weights.(c) +. w) clusters
        | None -> ())
    sites

(* Would assigning [lr] to [c] let the instruction at [site] be
   distributed to [c] alone? Unassigned operands are treated
   optimistically; a global-candidate destination forces dual. *)
let singleable_with ctx site lr c =
  let reads, writes = operands ctx.prog site in
  let ok_operand ~is_dst o =
    if o = lr then true
    else if ctx.part.Partition.global_candidate.(o) then not is_dst
    else
      match ctx.part.Partition.choice.(o) with
      | Partition.Cluster c' -> c' = c
      | Partition.Unconstrained -> true
  in
  List.for_all (fun o -> ok_operand ~is_dst:false o) reads
  && List.for_all (fun o -> ok_operand ~is_dst:true o) writes

let majority_preference ctx lr =
  let sites = Liveness.def_sites ctx.live lr @ Liveness.use_sites ctx.live lr in
  let votes = Array.make ctx.n_clusters 0.0 in
  List.iter
    (fun ((b, _) as site) ->
      let w = 1.0 +. Profile.count ctx.profile b in
      let singleables =
        List.filter (singleable_with ctx site lr) (List.init ctx.n_clusters Fun.id)
      in
      (* A site votes only when exactly one cluster keeps it single. *)
      match singleables with
      | [ c ] -> votes.(c) <- votes.(c) +. w
      | [] | _ :: _ :: _ -> ())
    sites;
  let best = ref (-1) and best_v = ref 0.0 and tie = ref false in
  Array.iteri
    (fun c v ->
      if v > !best_v then begin best := c; best_v := v; tie := false end
      else if v = !best_v && v > 0.0 then tie := true)
    votes;
  if !best >= 0 && not !tie then Some !best else None

let assign ctx lr c =
  ctx.part.Partition.choice.(lr) <- Partition.Cluster c;
  ctx.order <- lr :: ctx.order;
  update_balance ctx lr

(* Decide the cluster for [lr], first written by the instruction in block
   [b]: if the estimated run-time distribution is unbalanced by more than
   [imbalance_threshold] instructions (measured at this block's execution
   frequency), take the under-subscribed cluster; otherwise follow the
   majority preference of the live range's readers and writers. *)
let under_subscribed ctx =
  let best = ref 0 in
  Array.iteri (fun c w -> if w < ctx.weights.(!best) then best := c) ctx.weights;
  !best

let choose_cluster ctx ~imbalance_threshold b lr =
  let w = 1.0 +. Profile.count ctx.profile b in
  let lo = Array.fold_left min ctx.weights.(0) ctx.weights in
  let hi = Array.fold_left max ctx.weights.(0) ctx.weights in
  let imbalance = (hi -. lo) /. w in
  if imbalance > float_of_int imbalance_threshold then assign ctx lr (under_subscribed ctx)
  else
    match majority_preference ctx lr with
    | Some c -> assign ctx lr c
    | None -> assign ctx lr (under_subscribed ctx)

let partition_with_order ?(clusters = 2) ?(imbalance_threshold = 2) prog profile =
  let live = Liveness.analyse prog in
  let part = Partition.none ~clusters prog in
  let counted =
    Array.map
      (fun (b : Program.block) -> Array.make (Array.length b.Program.instrs + 1) false)
      prog.Program.blocks
  in
  let ctx =
    { prog; profile; live; part; n_clusters = clusters; counted;
      weights = Array.make clusters 0.0; order = [] }
  in
  let unassigned lr =
    (not part.Partition.global_candidate.(lr))
    && part.Partition.choice.(lr) = Partition.Unconstrained
  in
  (* In-order traversal of each block (most-frequent block first). At each
     instruction: a write to an unassigned live range picks its cluster —
     except for pure constant definitions (no register sources), which
     carry no placement information; and a read of an unassigned live
     range that has no definition inside the current block (an inherited
     value) also picks its cluster. This is the traversal that yields the
     paper's Figure-6 order A, B, G, H, C, D, E. *)
  List.iter
    (fun b ->
      let blk = prog.Program.blocks.(b) in
      let defined_in_block = Hashtbl.create 16 in
      Array.iter
        (fun i -> List.iter (fun lr -> Hashtbl.replace defined_in_block lr ()) (Il.lrs_written i))
        blk.Program.instrs;
      let n = Array.length blk.Program.instrs in
      for k = 0 to n do
        let reads, writes = operands prog (b, k) in
        if reads <> [] then
          List.iter
            (fun lr -> if unassigned lr then choose_cluster ctx ~imbalance_threshold b lr)
            writes;
        List.iter
          (fun lr ->
            if unassigned lr && not (Hashtbl.mem defined_in_block lr) then
              choose_cluster ctx ~imbalance_threshold b lr)
          reads
      done)
    (block_order prog profile);
  (* Live ranges never written in any block (or only in unreachable code
     the traversal missed): round-robin them for determinism. *)
  let next = ref 0 in
  for lr = 0 to Partition.num_lrs part - 1 do
    if unassigned lr then begin
      assign ctx lr (!next mod clusters);
      incr next
    end
  done;
  (part, List.rev ctx.order)

let partition ?clusters ?imbalance_threshold prog profile =
  fst (partition_with_order ?clusters ?imbalance_threshold prog profile)
