type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  miss_latency : int;
  mshrs : int option;
}

let default_config =
  { size_bytes = 64 * 1024; assoc = 2; line_bytes = 32; miss_latency = 16; mshrs = None }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_config c =
  if not (is_pow2 c.line_bytes) then invalid_arg "Cache: line_bytes not a power of two";
  if c.assoc < 1 then invalid_arg "Cache: assoc < 1";
  if c.miss_latency < 1 then invalid_arg "Cache: miss_latency < 1";
  (match c.mshrs with
  | Some n when n < 1 -> invalid_arg "Cache: mshrs < 1"
  | Some _ | None -> ());
  if c.size_bytes < c.line_bytes * c.assoc then invalid_arg "Cache: size too small";
  if c.size_bytes mod (c.line_bytes * c.assoc) <> 0 then
    invalid_arg "Cache: size not a multiple of assoc * line size";
  if not (is_pow2 (c.size_bytes / (c.line_bytes * c.assoc))) then
    invalid_arg "Cache: number of sets not a power of two"

type t = {
  cfg : config;
  num_sets : int;
  tags : int array;  (* num_sets * assoc; -1 = invalid *)
  last_use : int array;  (* LRU timestamps *)
  fills : int array;
      (* per way: the fill cycle of the resident line's miss while its
         in-flight entry may still be in the table, else -1 *)
  in_flight : (int, int) Hashtbl.t;  (* line number -> fill cycle *)
  mutable stamp : int;
  mutable last_cycle : int;
  mutable n_accesses : int;
  mutable n_hits : int;
  mutable n_primary : int;
  mutable n_secondary : int;
  mutable n_mshr_stalls : int;
}

let create cfg =
  validate_config cfg;
  let num_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  { cfg; num_sets;
    tags = Array.make (num_sets * cfg.assoc) (-1);
    last_use = Array.make (num_sets * cfg.assoc) 0;
    fills = Array.make (num_sets * cfg.assoc) (-1);
    in_flight = Hashtbl.create 64;
    stamp = 0; last_cycle = 0;
    n_accesses = 0; n_hits = 0; n_primary = 0; n_secondary = 0; n_mshr_stalls = 0 }

let config t = t.cfg

let line_of t addr = addr / t.cfg.line_bytes
let set_of t line = line land (t.num_sets - 1)
let tag_of t line = line / t.num_sets

(* The slot of a hit, or -1: a top-level recursion over the set's ways
   returning an int, so a lookup allocates neither a closure nor an
   option. *)
let rec find_way_from t tag slot stop =
  if slot = stop then -1
  else if t.tags.(slot) = tag then slot
  else find_way_from t tag (slot + 1) stop

let find_way t set tag =
  let base = set * t.cfg.assoc in
  find_way_from t tag base (base + t.cfg.assoc)

let touch t slot =
  t.stamp <- t.stamp + 1;
  t.last_use.(slot) <- t.stamp

let install t set tag =
  let base = set * t.cfg.assoc in
  (* Victim: invalid way if any, else least recently used. *)
  let victim = ref base in
  for w = 0 to t.cfg.assoc - 1 do
    let s = base + w in
    if t.tags.(s) = -1 && t.tags.(!victim) <> -1 then victim := s
    else if t.tags.(s) <> -1 && t.tags.(!victim) <> -1 && t.last_use.(s) < t.last_use.(!victim)
    then victim := s
  done;
  t.tags.(!victim) <- tag;
  touch t !victim;
  !victim

(* The MSHR-limited path took [line]'s entry out of the table: if the
   line is resident, its way's fill goes too, so its next access is a
   hit, as a table lookup would find. *)
let forget_fill t line =
  let slot = find_way t (set_of t line) (tag_of t line) in
  if slot >= 0 then t.fills.(slot) <- -1

let drop_completed t cycle =
  Hashtbl.filter_map_inplace (fun _ fill -> if fill <= cycle then None else Some fill) t.in_flight

let hit t slot cycle =
  t.n_hits <- t.n_hits + 1;
  touch t slot;
  cycle

(* A resident line answers from its way: a secondary miss while its fill
   is pending, else a hit, and the first such hit drops the line's table
   entry. A line is installed at miss time with its entry inserted, and
   nothing else inserts one while it stays resident, so the way's fill
   is the entry's. The table is read only on a tag miss: an evicted line
   can still be in flight. *)
let access t ~cycle ~addr ~write:_ =
  if cycle < t.last_cycle then invalid_arg "Cache.access: cycle went backwards";
  t.last_cycle <- cycle;
  t.n_accesses <- t.n_accesses + 1;
  let line = line_of t addr in
  let set = set_of t line in
  let tag = tag_of t line in
  let slot = find_way t set tag in
  if slot >= 0 then begin
    let fill = t.fills.(slot) in
    if fill < 0 then hit t slot cycle
    else if cycle < fill then begin
      (* Secondary miss: merge into the outstanding fetch. *)
      t.n_secondary <- t.n_secondary + 1;
      fill
    end
    else begin
      Hashtbl.remove t.in_flight line;
      t.fills.(slot) <- -1;
      hit t slot cycle
    end
  end
  else
    match Hashtbl.find_opt t.in_flight line with
    | Some fill when cycle < fill ->
      t.n_secondary <- t.n_secondary + 1;
      fill
    | completed ->
      (* Either nothing was in flight, or the fill finished and the line
         was evicted since. *)
      if Option.is_some completed then Hashtbl.remove t.in_flight line;
      t.n_primary <- t.n_primary + 1;
      let slot = install t set tag in
      (* A conventional miss-handling file has a fixed number of MSHRs
         [Farkas & Jouppi, ISCA'94]: when all are busy the new miss waits
         for the earliest outstanding fill. The inverted MSHR ([mshrs] =
         None) never stalls. *)
      let start =
        match t.cfg.mshrs with
        | None ->
          (* Nothing else drops an entry whose line is evicted, or never
             accessed again, after its fill; bound the table by the line
             count. A completed entry answers as an absent one does. *)
          if Hashtbl.length t.in_flight > Array.length t.tags then drop_completed t cycle;
          cycle
        | Some n ->
          (* Drop completed fills, then wait for slots if still full. *)
          drop_completed t cycle;
          let rec wait cycle =
            if Hashtbl.length t.in_flight < n then cycle
            else begin
              let earliest =
                Hashtbl.fold (fun l fill acc ->
                    match acc with
                    | Some (_, f) when f <= fill -> acc
                    | _ -> Some (l, fill))
                  t.in_flight None
              in
              match earliest with
              | Some (l, fill) ->
                t.n_mshr_stalls <- t.n_mshr_stalls + 1;
                Hashtbl.remove t.in_flight l;
                forget_fill t l;
                wait (max cycle fill)
              | None -> cycle
            end
          in
          wait cycle
      in
      let fill = start + t.cfg.miss_latency in
      Hashtbl.replace t.in_flight line fill;
      t.fills.(slot) <- fill;
      fill

let probe t ~addr =
  let line = line_of t addr in
  find_way t (set_of t line) (tag_of t line) >= 0
  ||
  match Hashtbl.find_opt t.in_flight line with
  | Some fill -> fill > t.last_cycle
  | None -> false

let accesses t = t.n_accesses
let hits t = t.n_hits
let primary_misses t = t.n_primary
let secondary_misses t = t.n_secondary

let miss_rate t =
  if t.n_accesses = 0 then 0.0
  else float_of_int (t.n_primary + t.n_secondary) /. float_of_int t.n_accesses

let mshr_stalls t = t.n_mshr_stalls

let reset_stats t =
  t.n_accesses <- 0;
  t.n_hits <- 0;
  t.n_primary <- 0;
  t.n_secondary <- 0;
  t.n_mshr_stalls <- 0
