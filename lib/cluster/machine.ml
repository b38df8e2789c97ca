module Reg = Mcsim_isa.Reg
module Op_class = Mcsim_isa.Op_class
module Instr = Mcsim_isa.Instr
module Flat_trace = Mcsim_isa.Flat_trace
module Issue_rules = Mcsim_isa.Issue_rules
module Cache = Mcsim_cache.Cache
module Mcfarling = Mcsim_branch.Mcfarling
module Stats = Mcsim_util.Stats
module Profile_counters = Mcsim_util.Profile_counters

(* ------------------------------------------------------------------ *)
(* The hot path's data structures                                      *)
(* ------------------------------------------------------------------ *)

(* The modules below have no user outside this file, and the machine
   calls them per copy and per cycle. dune's dev profile, which every
   build, test and benchmark of this repository uses, compiles each
   module [-opaque], so a call into another compilation unit is never
   inlined and a multi-argument one goes through [caml_applyN]. Defined
   here, every call is direct, and the small accessors inline
   ([@inline]); docs/ARCHITECTURE.md gives the measured cost.
   machine.mli re-exports their signatures for the unit tests.

   The containers hold ints only: the machine stores pool slots in them,
   never records (see [copy]). A store of an int into an [int array]
   skips the write barrier ([caml_modify]) that every pointer store
   pays, and a read from one needs no float-array test; both run per
   copy per stage. Bounds are checked against the live length, so the
   backing array is read unchecked. *)

module Vec = struct
  type t = { mutable arr : int array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let[@inline] length t = t.len

  let[@inline] get t i =
    if i < 0 || i >= t.len then invalid_arg "Vec.get";
    Array.unsafe_get t.arr i

  let[@inline] set t i x =
    if i < 0 || i >= t.len then invalid_arg "Vec.set";
    Array.unsafe_set t.arr i x

  let grow t =
    let arr = Array.make (max 8 (2 * Array.length t.arr)) 0 in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr

  let[@inline] push t x =
    if t.len = Array.length t.arr then grow t;
    Array.unsafe_set t.arr t.len x;
    t.len <- t.len + 1

  let[@inline] clear t = t.len <- 0

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
end

(* The backing array starts empty and grows by doubling from 16; its
   length is a power of two, so positions wrap with a mask and every
   masked position is in bounds. *)
module Deque = struct
  type t = {
    mutable buf : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = [||]; head = 0; len = 0 }

  let[@inline] length t = t.len
  let[@inline] is_empty t = t.len = 0

  let grow t =
    let cap = Array.length t.buf in
    let nbuf = Array.make (max 16 (cap * 2)) 0 in
    for i = 0 to t.len - 1 do
      nbuf.(i) <- t.buf.((t.head + i) land (cap - 1))
    done;
    t.buf <- nbuf;
    t.head <- 0

  let[@inline] push_back t x =
    if t.len = Array.length t.buf then grow t;
    Array.unsafe_set t.buf ((t.head + t.len) land (Array.length t.buf - 1)) x;
    t.len <- t.len + 1

  let[@inline] pop_front t =
    if t.len = 0 then invalid_arg "Deque.pop_front";
    let x = Array.unsafe_get t.buf t.head in
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    x

  let[@inline] pop_back t =
    if t.len = 0 then invalid_arg "Deque.pop_back";
    t.len <- t.len - 1;
    Array.unsafe_get t.buf ((t.head + t.len) land (Array.length t.buf - 1))

  let[@inline] get t i =
    if i < 0 || i >= t.len then invalid_arg "Deque.get";
    Array.unsafe_get t.buf ((t.head + i) land (Array.length t.buf - 1))

  let[@inline] front t = get t 0
  let[@inline] back t = get t (t.len - 1)

  let iter f t =
    for i = 0 to t.len - 1 do
      f (get t i)
    done

  let clear t =
    t.head <- 0;
    t.len <- 0
end

module Bucket_queue = struct
  type t = {
    mutable buckets : Vec.t array; (* length is a power of two *)
    mutable floor : int;
    mutable count : int;
  }

  let round_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1

  let create ?(capacity = 64) () =
    let cap = round_pow2 (max 1 capacity) in
    { buckets = Array.init cap (fun _ -> Vec.create ()); floor = 0; count = 0 }

  (* Pending keys all lie in [floor, floor + old_cap), so each old bucket
     holds entries for exactly one key: relocate whole buckets, no
     copying. *)
  let grow t needed =
    let old_cap = Array.length t.buckets in
    let cap = round_pow2 needed in
    let buckets = Array.make cap (Vec.create ()) in
    let taken = Array.make cap false in
    for k = t.floor to t.floor + old_cap - 1 do
      let slot = k land (cap - 1) in
      buckets.(slot) <- t.buckets.(k land (old_cap - 1));
      taken.(slot) <- true
    done;
    for i = 0 to cap - 1 do
      if not taken.(i) then buckets.(i) <- Vec.create ()
    done;
    t.buckets <- buckets

  let below_floor t key =
    invalid_arg (Printf.sprintf "Bucket_queue.add: key %d below floor %d" key t.floor)

  let[@inline] add t ~key x =
    if key < t.floor then below_floor t key;
    let cap = Array.length t.buckets in
    if key - t.floor >= cap then grow t (key - t.floor + 1);
    Vec.push t.buckets.(key land (Array.length t.buckets - 1)) x;
    t.count <- t.count + 1

  let drain_upto t ~key f =
    if t.count = 0 then begin
      if key >= t.floor then t.floor <- key + 1
    end
    else begin
      while t.floor <= key do
        (* Recompute the mask every round: the callback may [add] far
           enough ahead to grow (and thus replace) the bucket array. *)
        let b = t.buckets.(t.floor land (Array.length t.buckets - 1)) in
        (* Index loop: the callback may push into later buckets but not
           into [b], so the live length is fixed. *)
        let n = Vec.length b in
        for i = 0 to n - 1 do
          f (Vec.get b i)
        done;
        t.count <- t.count - n;
        Vec.clear b;
        t.floor <- t.floor + 1;
        if t.count = 0 && t.floor <= key then t.floor <- key + 1
      done
    end

  (* Drained buckets are cleared, so every stored entry is pending.
     Top-level recursions: the limbo flush asserts with this once per
     replay, and local closures would allocate each time. *)
  let rec in_bucket p b i = i < Vec.length b && (p (Vec.get b i) || in_bucket p b (i + 1))

  let rec in_buckets p buckets j =
    j < Array.length buckets && (in_bucket p buckets.(j) 0 || in_buckets p buckets (j + 1))

  let exists t p = in_buckets p t.buckets 0
end

module Freelist = struct
  type t = {
    free_ids : int array; (* stack of free identifiers; first [top] valid *)
    in_use : bool array;
    mutable top : int;
  }

  let create ~size =
    assert (size >= 0);
    { free_ids = Array.init size (fun i -> i); in_use = Array.make size false; top = size }

  let size t = Array.length t.in_use
  let[@inline] available t = t.top

  let[@inline] take t =
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

  module Slab = struct
    type t = {
      mutable built : int;  (* slots handed out at least once: [0, built) *)
      mutable free_ids : int array;  (* stack of recycled slots; first [top] valid *)
      mutable top : int;
      mutable in_use : Bytes.t;  (* '\001' = handed out *)
      mutable live : int;
    }

    let create ?(initial = 64) () =
      if initial < 1 then invalid_arg "Freelist.Slab.create: initial < 1";
      { built = 0;
        free_ids = Array.make initial 0;
        top = 0;
        in_use = Bytes.make initial '\000';
        live = 0 }

    let live t = t.live
    let built t = t.built

    let grow t =
      let cap = Bytes.length t.in_use in
      let ncap = 2 * cap in
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
          if t.built = Bytes.length t.in_use then grow t;
          let id = t.built in
          t.built <- t.built + 1;
          id
        end
      in
      Bytes.set t.in_use id '\001';
      t.live <- t.live + 1;
      id

    let in_use t id = id >= 0 && id < t.built && Bytes.get t.in_use id = '\001'

    let free t id =
      if id < 0 || id >= t.built then invalid_arg "Freelist.Slab.free: not from this pool";
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
end

module Regfile = struct
  type bank = B_int | B_fp

  let[@inline] bank_of_reg r = if Reg.is_int r then B_int else B_fp

  type bank_state = {
    freelist : Freelist.t;
    map : int array;  (* architectural index -> physical register *)
    ready : int array;  (* physical register -> ready cycle; max_int = pending *)
  }

  type t = {
    int_bank : bank_state;
    fp_bank : bank_state;
  }

  let make_bank num_phys =
    let freelist = Freelist.create ~size:num_phys in
    let map = Array.make 32 (-1) in
    let ready = Array.make num_phys 0 in
    for a = 0 to 31 do
      match Freelist.alloc freelist with
      | Some p -> map.(a) <- p
      | None -> assert false
    done;
    { freelist; map; ready }

  let create ~num_phys =
    if num_phys < 32 then invalid_arg "Regfile.create: num_phys < 32";
    if num_phys > 0x10000 then invalid_arg "Regfile.create: num_phys > 65536";
    { int_bank = make_bank num_phys; fp_bank = make_bank num_phys }

  let[@inline] bank_state t = function B_int -> t.int_bank | B_fp -> t.fp_bank

  let[@inline] free_count t b = Freelist.available (bank_state t b).freelist

  let[@inline] lookup t reg =
    if Reg.is_zero reg then invalid_arg "Regfile.lookup: zero register";
    let bs = bank_state t (bank_of_reg reg) in
    bs.map.(Reg.index reg)

  (* Physical ids fit in 16 bits ([create] enforces it), so both halves
     of the result pack into one immediate int for the dispatch hot
     path. *)
  let rename_packed t reg =
    if Reg.is_zero reg then invalid_arg "Regfile.rename_packed: zero register";
    let bs = bank_state t (bank_of_reg reg) in
    let p = Freelist.take bs.freelist in
    if p < 0 then -1
    else begin
      let a = Reg.index reg in
      let prev = bs.map.(a) in
      bs.map.(a) <- p;
      bs.ready.(p) <- max_int;
      (p lsl 16) lor prev
    end

  let undo_rename t b a ~new_phys ~prev_phys =
    let bs = bank_state t b in
    assert (bs.map.(a) = new_phys);
    bs.map.(a) <- prev_phys;
    Freelist.free bs.freelist new_phys

  let release t b phys = Freelist.free (bank_state t b).freelist phys

  let[@inline] ready_at t b phys = (bank_state t b).ready.(phys)
  let[@inline] set_ready t b phys cycle = (bank_state t b).ready.(phys) <- cycle
end

(* The machine's operation classes as dense ints, so a copy records its
   class in an immediate field. The two divide widths keep their own
   codes because their latencies differ. *)
module Op_code = struct
  let classes : Op_class.t array =
    [| Int_multiply; Int_other; Fp_divide { bits64 = false }; Fp_divide { bits64 = true };
       Fp_other; Load; Store; Control |]

  let latencies = Array.map Op_class.latency classes

  let of_class (op : Op_class.t) =
    match op with
    | Int_multiply -> 0
    | Int_other -> 1
    | Fp_divide { bits64 } -> if bits64 then 3 else 2
    | Fp_other -> 4
    | Load -> 5
    | Store -> 6
    | Control -> 7

  let () = Array.iteri (fun code op -> assert (of_class op = code)) classes
  let int_other = 1
  let fp_other = 4
  let load = 5
  let store = 6
  let control = 7
  let[@inline] latency code = latencies.(code)
  let[@inline] is_divide code = code = 2 || code = 3
end

(* [Fu]'s classes are {!Op_code} codes: 0 int multiply, 1 int other, 2
   and 3 the two divide widths, 4 fp other, 5 load, 6 store, 7 control. *)
module Fu = struct
  type budget = {
    limits : Issue_rules.limits;
    mutable n_total : int;
    mutable n_int_multiply : int;
    mutable n_int_other : int;
    mutable n_fp_all : int;
    mutable n_fp_divide : int;
    mutable n_fp_other : int;
    mutable n_memory : int;
    mutable n_control : int;
  }

  let budget limits =
    { limits; n_total = 0; n_int_multiply = 0; n_int_other = 0; n_fp_all = 0; n_fp_divide = 0;
      n_fp_other = 0; n_memory = 0; n_control = 0 }

  let[@inline] reset b =
    b.n_total <- 0;
    b.n_int_multiply <- 0;
    b.n_int_other <- 0;
    b.n_fp_all <- 0;
    b.n_fp_divide <- 0;
    b.n_fp_other <- 0;
    b.n_memory <- 0;
    b.n_control <- 0

  let[@inline] budget_allows b code =
    let l = b.limits in
    b.n_total < l.total
    &&
    match code with
    | 0 -> b.n_int_multiply < l.int_multiply
    | 1 -> b.n_int_other < l.int_other
    | 2 | 3 -> b.n_fp_all < l.fp_all && b.n_fp_divide < l.fp_divide
    | 4 -> b.n_fp_all < l.fp_all && b.n_fp_other < l.fp_other
    | 5 | 6 -> b.n_memory < l.memory
    | _ -> b.n_control < l.control

  let consume b code =
    b.n_total <- b.n_total + 1;
    match code with
    | 0 -> b.n_int_multiply <- b.n_int_multiply + 1
    | 1 -> b.n_int_other <- b.n_int_other + 1
    | 2 | 3 ->
      b.n_fp_all <- b.n_fp_all + 1;
      b.n_fp_divide <- b.n_fp_divide + 1
    | 4 ->
      b.n_fp_all <- b.n_fp_all + 1;
      b.n_fp_other <- b.n_fp_other + 1
    | 5 | 6 -> b.n_memory <- b.n_memory + 1
    | _ -> b.n_control <- b.n_control + 1

  type t = {
    budget : budget;
    dividers : int array;  (* per-divider first free cycle *)
    mutable issued_total : int;
    counts : int array;  (* cumulative issues per code *)
  }

  (* One unpipelined divider per fp-divide issue slot, so the
     single-cluster machine and the whole dual-cluster machine hold the
     same number of dividers (the paper's resource-parity rule, §4). *)
  let create (limits : Issue_rules.limits) =
    { budget = budget limits;
      dividers = Array.make (max 1 limits.fp_divide) 0;
      issued_total = 0;
      counts = Array.make 8 0 }

  let[@inline] new_cycle t = reset t.budget

  (* The first divider idle at [cycle], or -1. A top-level recursion
     returning an int: a local closure or an option here would allocate
     on every issue check of a waiting divide. *)
  let rec free_divider_from t ~cycle i =
    if i = Array.length t.dividers then -1
    else if t.dividers.(i) <= cycle then i
    else free_divider_from t ~cycle (i + 1)

  let free_divider t ~cycle = free_divider_from t ~cycle 0

  let[@inline] can_issue t ~cycle code =
    budget_allows t.budget code && ((not (Op_code.is_divide code)) || free_divider t ~cycle >= 0)

  let issue t ~cycle code =
    if not (can_issue t ~cycle code) then invalid_arg "Fu.issue: cannot issue";
    consume t.budget code;
    if Op_code.is_divide code then
      t.dividers.(free_divider t ~cycle) <- cycle + Op_code.latency code;
    t.issued_total <- t.issued_total + 1;
    t.counts.(code) <- t.counts.(code) + 1

  let[@inline] issued_this_cycle t = t.budget.n_total
  let[@inline] total_issued t = t.issued_total

  (* Both divide widths share the divider and the Table-1 budget row, so
     they are counted together. *)
  let issued_of_class t code =
    if Op_code.is_divide code then t.counts.(2) + t.counts.(3) else t.counts.(code)

  let clear_divider t = Array.fill t.dividers 0 (Array.length t.dividers) 0
end

module Transfer_buffer = struct
  type t = {
    n : int;
    free_at : int array;  (* entry -> first cycle it is allocatable; -1 = in use *)
    mutable in_use : int;
    mutable last_free : int;  (* the cycle of the latest [free]; -1 before any *)
    mutable freed_last : int;
        (* entries freed in cycle [last_free]: [available] subtracts them
           only at that cycle, when none of them can be allocated *)
    mutable high : int;
  }

  let create ~entries =
    if entries < 1 then invalid_arg "Transfer_buffer.create";
    { n = entries; free_at = Array.make entries 0; in_use = 0; last_free = -1; freed_last = 0;
      high = 0 }

  let[@inline] entries t = t.n

  (* Every free entry is allocatable after [last_free], and at
     [last_free] all but those freed in it. Cycles only grow, so no
     query asks about an earlier cycle. *)
  let[@inline] available t ~cycle =
    t.n - t.in_use - if cycle <= t.last_free then t.freed_last else 0

  (* The reference [available] is checked against: count the entries
     free at [cycle] one by one. *)
  let available_by_scan t ~cycle =
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
    t.in_use <- t.in_use + 1;
    if t.in_use > t.high then t.high <- t.in_use;
    i

  let free t ~cycle i =
    if i < 0 || i >= t.n then invalid_arg "Transfer_buffer.free: bad entry";
    if t.free_at.(i) >= 0 then invalid_arg "Transfer_buffer.free: not in use";
    t.free_at.(i) <- cycle + 1;
    t.in_use <- t.in_use - 1;
    if cycle = t.last_free then t.freed_last <- t.freed_last + 1
    else begin
      t.last_free <- cycle;
      t.freed_last <- 1
    end

  let clear t =
    for i = 0 to t.n - 1 do
      t.free_at.(i) <- 0
    done;
    t.in_use <- 0;
    t.last_free <- -1;
    t.freed_last <- 0

  let high_water t = t.high
end

(* [Stdlib.max] is polymorphic, so even inlined it compares through the
   generic out-of-line comparison: the cycle-level paths compare ints
   with this instead. *)
let imax (a : int) b = if a >= b then a else b

type queue_split = Unified | Per_class

(* Queue index under Per_class: 0 = integer (and control), 1 = floating
   point, 2 = memory - the R10000/21264 arrangement the paper contrasts
   its single queue with. [code] is an {!Op_code}. *)
let[@inline] queue_of_code code split =
  match split with
  | Unified -> 0
  | Per_class -> ( match code with 0 | 1 | 7 -> 0 | 2 | 3 | 4 -> 1 | _ -> 2)

let num_queues = function Unified -> 1 | Per_class -> 3

(* Per-queue capacity: the integer queue gets half the entries, fp and
   memory a quarter each (rounded up). *)
let queue_capacity split dq_entries q =
  match split with
  | Unified -> dq_entries
  | Per_class -> if q = 0 then (dq_entries + 1) / 2 else (dq_entries + 3) / 4

type engine = [ `Scan | `Wakeup ]

type config = {
  assignment : Assignment.t;
  topology : Interconnect.topology;
  steering : Steering.policy;
  dq_entries : int;
  phys_per_bank : int;
  fetch_width : int;
  dispatch_width : int;
  retire_width : int;
  issue_limits : Issue_rules.limits;
  queue_split : queue_split;
  operand_buffer_entries : int;
  result_buffer_entries : int;
  icache : Cache.config;
  dcache : Cache.config;
  predictor : Mcfarling.config;
  redirect_penalty : int;
  replay_threshold : int;
  replay_penalty : int;
}

let config_for_clusters ?(width = 8) ?(topology = Interconnect.Point_to_point) n =
  if not (List.mem n [ 1; 2; 4; 8 ]) then
    invalid_arg (Printf.sprintf "Machine.config_for_clusters: %d (want 1, 2, 4 or 8)" n);
  if width <> 8 && width <> 4 then
    invalid_arg (Printf.sprintf "Machine.config_for_clusters: width %d (want 8 or 4)" width);
  if width = 4 && n > 2 then
    invalid_arg
      (Printf.sprintf "Machine.config_for_clusters: %d clusters at width 4 (want 1 or 2)" n);
  let w = width / n in
  { assignment = (if n = 1 then Assignment.single else Assignment.create ~num_clusters:n ());
    topology;
    steering = Steering.Static;
    dq_entries = 16 * w;
    phys_per_bank = max 32 (16 * w);
    fetch_width = 3 * width / 2;
    dispatch_width = 3 * width / 2;
    retire_width = width;
    issue_limits = Issue_rules.for_width w;
    queue_split = Unified;
    operand_buffer_entries = min 8 (2 * w);
    result_buffer_entries = min 8 (2 * w);
    icache = Cache.default_config;
    dcache = Cache.default_config;
    predictor = Mcfarling.default_config;
    redirect_penalty = 1;
    replay_threshold = 8;
    replay_penalty = 6 }

let single_cluster () = config_for_clusters 1
let dual_cluster () = config_for_clusters 2

let validate_config c =
  if Assignment.num_clusters c.assignment < 1 || Assignment.num_clusters c.assignment > 8 then
    invalid_arg "Machine: 1 to 8 clusters";
  if c.dq_entries < 1 then invalid_arg "Machine: dq_entries < 1";
  if c.phys_per_bank < 32 then invalid_arg "Machine: phys_per_bank < 32";
  if c.fetch_width < 1 || c.dispatch_width < 1 || c.retire_width < 1 then
    invalid_arg "Machine: widths must be >= 1";
  if c.operand_buffer_entries < 1 || c.result_buffer_entries < 1 then
    invalid_arg "Machine: buffer entries must be >= 1";
  (* A master needs all its forwarded operands in its buffer at once, and
     a replay cannot break a wait inside one group: one entry wedges a
     master with two, which only the static dual machine never makes. *)
  let n = Assignment.num_clusters c.assignment in
  if c.operand_buffer_entries < 2 && (n > 2 || (n = 2 && Steering.is_dynamic c.steering)) then
    invalid_arg
      "Machine: operand_buffer_entries must be >= 2 beyond 2 clusters, and at 2 under a \
       dynamic steering policy (a master can need two forwarded operands at once)";
  if c.redirect_penalty < 0 || c.replay_penalty < 0 then
    invalid_arg "Machine: penalties must be >= 0";
  if c.replay_threshold < 1 then invalid_arg "Machine: replay_threshold < 1";
  Cache.validate_config c.icache;
  Cache.validate_config c.dcache

type role = Single_copy | Master_copy | Slave_copy

let role_to_string = function
  | Single_copy -> "single"
  | Master_copy -> "master"
  | Slave_copy -> "slave"

type event =
  | Ev_fetch of { cycle : int; seq : int }
  | Ev_dispatch of { cycle : int; seq : int; cluster : int; role : role; scenario : int }
  | Ev_issue of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_operand_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
  | Ev_result_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
  | Ev_suspend of { cycle : int; seq : int; cluster : int }
  | Ev_wakeup of { cycle : int; seq : int; cluster : int }
  | Ev_writeback of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_retire of { cycle : int; seq : int }
  | Ev_replay of { cycle : int; seq : int }

let pp_event fmt = function
  | Ev_fetch { cycle; seq } -> Format.fprintf fmt "[%4d] fetch #%d" cycle seq
  | Ev_dispatch { cycle; seq; cluster; role; scenario } ->
    Format.fprintf fmt "[%4d] dispatch #%d C%d %s (scenario %d)" cycle seq cluster
      (role_to_string role) scenario
  | Ev_issue { cycle; seq; cluster; role } ->
    Format.fprintf fmt "[%4d] issue #%d C%d %s" cycle seq cluster (role_to_string role)
  | Ev_operand_forward { cycle; seq; from_cluster; to_cluster } ->
    Format.fprintf fmt "[%4d] operand #%d C%d -> operand buffer of C%d" cycle seq from_cluster
      to_cluster
  | Ev_result_forward { cycle; seq; from_cluster; to_cluster } ->
    Format.fprintf fmt "[%4d] result #%d C%d -> result buffer of C%d" cycle seq from_cluster
      to_cluster
  | Ev_suspend { cycle; seq; cluster } ->
    Format.fprintf fmt "[%4d] suspend #%d C%d" cycle seq cluster
  | Ev_wakeup { cycle; seq; cluster } ->
    Format.fprintf fmt "[%4d] wakeup #%d C%d" cycle seq cluster
  | Ev_writeback { cycle; seq; cluster; role } ->
    Format.fprintf fmt "[%4d] writeback #%d C%d %s" cycle seq cluster (role_to_string role)
  | Ev_retire { cycle; seq } -> Format.fprintf fmt "[%4d] retire #%d" cycle seq
  | Ev_replay { cycle; seq } -> Format.fprintf fmt "[%4d] replay from #%d" cycle seq

type cstate = C_waiting | C_issued | C_suspended | C_squashed

(* Local physical sources are packed into an int, [(phys lsl 1) lor bank]
   with bank 0 = integer and 1 = floating point, so a copy's source array
   carries no per-element tuple boxes. *)
let src_code (b : Regfile.bank) phys =
  (phys lsl 1) lor (match b with Regfile.B_int -> 0 | Regfile.B_fp -> 1)

let src_bank code : Regfile.bank = if code land 1 = 0 then Regfile.B_int else Regfile.B_fp
let src_phys code = code lsr 1
let bank_bit (b : Regfile.bank) = match b with Regfile.B_int -> 0 | Regfile.B_fp -> 1

(* An instruction may source at most two registers (Instr.make enforces
   it), so per-copy source and operand-entry storage is a fixed two-slot
   array owned by the pooled record. *)
let max_srcs = 2

(* validate_config caps the machine at 8 clusters: a group has at most
   7 slave copies, so the slave array is fixed too. *)
let max_slaves = 7

(* Copies and groups live in per-state pools: the state's [copies] and
   [groups] arrays hold one record per slot, and [Freelist.Slab] hands
   out and takes back the slots. Dispatch recycles a record and
   overwrites every field instead of allocating; retire and squash
   return its slot. Records name each other, and every container holds
   them, by slot, and every mutable field is an immediate (the int
   arrays are immutable fields), so no store into a record or a
   container runs the write barrier. -1 is "no copy". The destination
   is flattened into the (reg, bank, new, prev) fields, with
   [c_dst_new = -1] for "no destination". *)
type copy = {
  c_slot : int;
  mutable c_seq : int;
  mutable c_cluster : int;
  mutable c_role : role;
  mutable c_op : int;  (** {!Op_code} of the architectural operation (master/single) *)
  mutable c_issue_class : int;  (** {!Op_code} of the issue slot this copy consumes *)
  c_srcs : int array;  (** local physical sources, see {!src_code}; first [c_nsrcs] valid *)
  mutable c_nsrcs : int;
  mutable c_dst_reg : int;
      (** architectural index, in bank [c_dst_bank]; meaningful only when
          [c_dst_new >= 0] *)
  mutable c_dst_bank : Regfile.bank;
  mutable c_dst_new : int;  (** renamed physical destination; -1 = none *)
  mutable c_dst_prev : int;  (** previous mapping (freed at retire) *)
  mutable c_forwards : bool;
  mutable c_receives_result : bool;
  mutable c_result_forward : bool;  (** master must allocate a result entry *)
  mutable c_has_slave_operand : bool;  (** master waits for the slave's operand *)
  mutable c_num_operand_entries : int;  (** entries a forwarding slave needs *)
  mutable c_state : cstate;
  mutable c_issue : int;
  mutable c_finish : int;
  mutable c_pending : int;
      (** wakeup engine: events still outstanding before the copy can
          leave for the ready list — one per not-yet-ready source, plus
          one per partner (see [register_copy]) *)
  c_operand_ents : int array;  (** first [c_operand_live] valid *)
  mutable c_operand_live : int;
  mutable c_result_entry : int;
      (** on a receiving slave: the entry (in its own cluster's result
          buffer) reserved by the master; -1 when none *)
  mutable c_master_cluster : int;  (** the master copy's cluster *)
  mutable c_group : int;  (** the group's slot *)
}

type group = {
  g_slot : int;
  mutable g_seq : int;
      (** position in the current trace — all dynamic payloads (memory
          address, branch outcome) are read back from the flat trace at
          this index *)
  mutable g_scenario : int;
  mutable g_master : int;
      (** slot of the executing copy (single or master); -1 only
          transiently inside [try_dispatch_one] *)
  g_slaves : int array;
      (** slots, first [g_nslaves] valid, one per participating other
          cluster *)
  mutable g_nslaves : int;
  mutable g_token : int;  (** packed {!Mcfarling.predict} token; -1 unless a conditional branch *)
  mutable g_mispred : bool;
}

let make_pool_copy slot =
  { c_slot = slot; c_seq = -1; c_cluster = 0; c_role = Single_copy;
    c_op = Op_code.int_other; c_issue_class = Op_code.int_other;
    c_srcs = Array.make max_srcs 0; c_nsrcs = 0;
    c_dst_reg = 0; c_dst_bank = Regfile.B_int; c_dst_new = -1; c_dst_prev = -1;
    c_forwards = false; c_receives_result = false; c_result_forward = false;
    c_has_slave_operand = false; c_num_operand_entries = 0;
    c_state = C_squashed; c_issue = -1; c_finish = max_int; c_pending = 0;
    c_operand_ents = Array.make max_srcs (-1); c_operand_live = 0; c_result_entry = -1;
    c_master_cluster = 0; c_group = -1 }

let make_pool_group slot =
  { g_slot = slot; g_seq = -1; g_scenario = 0; g_master = -1;
    g_slaves = Array.make max_slaves (-1); g_nslaves = 0;
    g_token = -1; g_mispred = false }

(* A pool's record array, doubled: the slab hands out slots densely, so
   the array grows when its next slot would fall off the end. Records
   are built on a slot's first use, so unused positions hold a record of
   another slot (slot -1's filler, or slot 0's). *)
let grow_records records =
  let n = Array.length records in
  let grown = Array.make (2 * n) records.(0) in
  Array.blit records 0 grown 0 n;
  grown

type cluster_state = {
  cl_id : int;
  rf : Regfile.t;
  fu : Fu.t;
  dqs : Deque.t array;
      (** scan engine: one queue ([Unified]) or int/fp/mem ([Per_class]) *)
  dq_waiting : int array;  (** per queue: entries occupied by waiting copies *)
  mutable cl_waiting : int;
      (** running total of [dq_waiting] — updated at enqueue, issue and
          squash so dispatch steering reads it in O(1) instead of
          rescanning every queue per attempt; [occupancy_snapshot]
          asserts agreement with the scan *)
  wait_regs : Vec.t array array;
      (** wakeup engine: per bank bit, per physical register, the waiting
          copies indexed under that not-yet-written source *)
  ready_qs : Vec.t array;
      (** wakeup engine: per-queue list of copies whose sources are all
          ready (possibly still structurally blocked), in seq order *)
  operand_buf : Transfer_buffer.t;  (** written by slaves in the other cluster *)
  result_buf : Transfer_buffer.t;  (** written by masters in the other cluster *)
  operand_waiters : Vec.t;
      (** wakeup engine: forwarding slaves parked until an [operand_buf]
          entry frees (see [park]) *)
  result_waiters : Vec.t;
      (** wakeup engine: masters parked until a [result_buf] entry frees *)
}

let total_waiting cl = Array.fold_left ( + ) 0 cl.dq_waiting

type result = {
  cycles : int;
  retired : int;
  ipc : float;
  single_distributed : int;
  dual_distributed : int;
  replays : int;
  branch_accuracy : float;
  icache_miss_rate : float;
  dcache_miss_rate : float;
  counters : (string * int) list;
  counter_lookup : Stats.lookup;
}

let counter r name = Stats.lookup_get r.counter_lookup name

type occupancy = {
  oc_cycle : int;
  oc_rob : int;
  oc_dispatch_queues : int array;
  oc_operand_buffers : int array;
  oc_result_buffers : int array;
}

(* The counters bumped once (or more) per instruction, interned as live
   cells at [init_state] so the hot path pays a plain [incr] instead of a
   string hash per event. They remain ordinary members of [ctrs]. *)
type hot_counters = {
  k_retired : int ref;
  k_single_distributed : int ref;
  k_dual_distributed : int ref;
  k_slave_issues : int ref;
  k_scenarios : int ref array;  (* scenario_0 .. scenario_5 *)
  k_stall_rob_full : int ref;
  k_stall_dq_full : int ref;
  k_stall_phys : int ref;
  k_ooo_issues : int ref;
  k_ooo_issue_distance : int ref;
  k_issue_active : int ref;
  k_both_active : int ref;
  k_fetch_stall : int ref;
  k_icache_fetch_misses : int ref;
  k_mispredicted_fetches : int ref;
  k_redirects : int ref;
  k_squashed_copies : int ref;
}

type state = {
  cfg : config;
  engine : engine;
  n_clust : int;
  hops : int array;
      (** interconnect hop latencies, flattened [src * n_clust + dst]
          ({!Interconnect.matrix}); the dual machine's point-to-point
          table is all ones, the scalar "+1" the transfer paths used to
          hard-code *)
  mutable assignment : Assignment.t;  (* current phase's register assignment *)
  mutable trace : Flat_trace.t;
  mutable clusters : cluster_state array;
  mutable memo_plans : Distribution.plan array;
      (** distribution plans memoized per slot (see [plan_slot]) *)
  mutable memo_scenarios : int array;  (** each slot's {!Distribution.scenario} *)
  mutable memo_instrs : Instr.t array;
      (** the interned instruction each memo slot was planned for
          (physical identity is the validity check); [plan_dummy] marks
          an empty slot. Cleared when [load_phase] installs a new
          assignment. *)
  plan_dummy : Instr.t;
  steer_dynamic : bool;
      (** a dynamic steering policy is active and the machine has more
          than one cluster — the one test the dispatch hot path pays *)
  steer_train : bool;  (** policy is [Ineffectual]: train at retire *)
  mutable steer_rr : int;  (** [Modulo]: next cluster, advanced per dispatch *)
  mutable steer_kind : int;
      (** classification of the latest dynamic decision: 0 = policy hit,
          1 = fell back to least-loaded, 2 = predicted-dead exile —
          promoted to the [steer_*] counters only when the dispatch
          attempt succeeds *)
  mutable steer_hits : int;
  mutable steer_fallbacks : int;
  mutable steer_dead_exiles : int;
  ineff : Steering.Ineff_table.t;
      (** per-pc dead-result predictor ([Ineffectual] only; empty-trained
          otherwise) *)
  arch_last_pc : int array;
      (** per architectural register ({!Reg.flat_index}): pc of the
          youngest retired writer, -1 when none this phase — the
          instruction the next overwrite's verdict trains *)
  arch_read : bool array;
      (** whether the youngest retired writer's value has been read *)
  icache : Cache.t;
  dcache : Cache.t;
  predictor : Mcfarling.t;
  rob : Deque.t;  (** group slots, oldest first *)
  fetch_buffer : Deque.t;
      (** the packed predictor token of each fetched, not yet dispatched
          instruction (-1 unless a conditional branch). Fetch reads the
          trace in order, and replay and [load_phase] empty the buffer
          whenever they move [trace_idx], so it always holds trace
          positions [trace_idx - length .. trace_idx - 1]: the front's
          seq is derived, not stored. Holds at most
          [2 * fetch_width]. *)
  ctrs : Stats.counter_set;
  hot : hot_counters;
  emit : event -> unit;
  observed : bool;
      (** an event sink is attached; [Ev_*] records are only constructed
          when this is set, so unobserved runs allocate no events *)
  on_occupancy : (occupancy -> unit) option;
  occupancy_period : int;  (** cycles between occupancy samples *)
  prof : Profile_counters.t option;
  src_wheel : Bucket_queue.t;
      (** wakeup engine: copies scheduled at the cycle one of their
          pending events fires — a source becomes ready, or a partner's
          transfer arrives (drained at issue) *)
  wake_wheel : Bucket_queue.t;
      (** wakeup engine: suspended scenario-5 slaves, keyed by the cycle
          the master's result reaches their cluster *)
  mutable wheel_horizon : int;
      (** the largest key ever scheduled on either wheel: every entry
          that exists now drains by this cycle *)
  wake_scratch : Vec.t;  (** wake-phase staging, sorted by seq *)
  copy_pool : Freelist.Slab.t;
  group_pool : Freelist.Slab.t;
  mutable copies : copy array;  (** copy slot -> record; grows with [copy_pool] *)
  mutable groups : group array;  (** group slot -> record *)
  limbo : Vec.t;
      (** squashed copies awaiting recycling: stale references to them
          may persist in the wheels until every pre-squash event has
          fired, so they re-enter the pool only once [limbo_flush_at]
          passes (see [squash_copy]/[replay]) *)
  mutable limbo_flush_at : int;
  mutable src_drain : int -> unit;  (** preallocated callbacks over copy slots: *)
  mutable wake_drain : int -> unit;
  mutable slot_waiting : int -> bool;  (** filter for [drop_squashed] *)
  mutable by_seq : int -> int -> int;
      (** order for the wake-phase sort. [Bucket_queue.drain_upto],
          [Vec.filter_in_place] and [Vec.sort] take a closure, and one
          that reads a record through [st] would be a fresh minor-heap
          block per call on the issue, wake and replay paths, so each is
          built once per state *)
  mutable scratch_work : int;  (** per-phase examined-entry accumulator *)
  mutable cycle : int;
  mutable trace_idx : int;
  mutable fetch_resume : int;  (** first cycle fetch may proceed *)
  mutable redirect_pending : bool;  (** mispredicted branch fetched, not yet executed *)
  mutable last_fetch_line : int;
  mutable max_finish : int;  (** latest known completion among issued copies *)
  mutable stall_cycles : int;  (** consecutive no-progress cycles *)
  pending_train : Deque.t;
      (** issued conditional branches awaiting training, three ints
          each — train cycle, seq, packed token — pushed at the back in
          nondecreasing train-cycle order (branches issue at
          nondecreasing cycles and [Control] latency is constant), so
          everything due sits at the front *)
  mutable max_issued_seq : int;
      (** youngest instruction issued so far (issue-disorder metric) *)
  mutable head_blocked_seq : int;
  mutable head_blocked_age : int;
      (** seq and consecutive cycles the oldest in-flight instruction has
          been issue-blocked on a transfer buffer — replay trigger even
          when younger instructions keep the machine busy (two plain ints
          rather than a tuple: the tracker updates every blocked cycle) *)
  mutable last_replay_seq : int;
  mutable last_replay_retired : int;
      (** victim seq and retired count at the most recent replay, to
          detect a replay that changed nothing (same victim again with no
          instruction retired in between) *)
  mutable starving_seq : int;
      (** anti-livelock freeze: while >= 0, groups younger than this seq
          may not claim transfer-buffer entries (see [claim]) *)
  mutable squashed_groups : int;
      (** groups squashed by replays; a counter only once nonzero (see
          [finish_result]) *)
}

let[@inline] copy_at st s = st.copies.(s)
let[@inline] group_at st s = st.groups.(s)
let[@inline] group_of st (c : copy) = st.groups.(c.c_group)
let[@inline] master_of st (g : group) = st.copies.(g.g_master)
let[@inline] slave_of st (g : group) i = st.copies.(g.g_slaves.(i))

let rob_capacity = 16384

let bank_of_op_for_slot (b : Regfile.bank) =
  match b with Regfile.B_int -> Op_code.int_other | Regfile.B_fp -> Op_code.fp_other

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let stage_fetch = 0
let stage_dispatch = 1
let stage_issue = 2
let stage_wake = 3
let stage_retire = 4
let stage_train = 5
let profile_stages = [ "fetch"; "dispatch"; "issue"; "wake"; "retire"; "train" ]
let profile_counters () = Profile_counters.create ~stages:profile_stages

let prof_add st stage work =
  match st.prof with Some p -> Profile_counters.add p stage ~work | None -> ()

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Returns the instruction's own [dst] option (no fresh [Some] box). *)
let effective_dst (i : Instr.t) =
  match i.dst with Some d when not (Reg.is_zero d) -> i.dst | Some _ | None -> None

let rec reg_forwarded r (regs : Reg.t list) =
  match regs with [] -> false | r' :: rest -> Reg.equal r r' || reg_forwarded r rest

let rec reg_forwarded_by_any r (slaves : Distribution.slave list) =
  match slaves with
  | [] -> false
  | sl :: rest -> reg_forwarded r sl.Distribution.s_forward_srcs || reg_forwarded_by_any r rest

(* Write the local physical sources of [regs] (at most two) into the
   pooled copy's own source array: hardwired zeros and registers
   forwarded by one of [slaves] ([] keeps everything) are dropped. A
   top-level recursion over the memoized plan — the old [collect_srcs]
   built a fresh array (plus a [keep] closure on the Multi path) per
   copy. *)
let rec fill_srcs rf (c : copy) slaves regs n =
  match regs with
  | [] -> c.c_nsrcs <- n
  | r :: rest ->
    if (not (Reg.is_zero r)) && not (reg_forwarded_by_any r slaves) then begin
      c.c_srcs.(n) <- src_code (Regfile.bank_of_reg r) (Regfile.lookup rf r);
      fill_srcs rf c slaves rest (n + 1)
    end
    else fill_srcs rf c slaves rest n

(* Rename the destination into the copy's (reg, bank, new, prev) fields.
   Callers check freelist headroom first, so the packed rename cannot
   fail here. *)
let set_copy_dst (c : copy) rf dst =
  match dst with
  | None -> ()
  | Some d ->
    let packed = Regfile.rename_packed rf d in
    assert (packed >= 0);
    c.c_dst_reg <- Reg.index d;
    c.c_dst_bank <- Regfile.bank_of_reg d;
    c.c_dst_new <- packed lsr 16;
    c.c_dst_prev <- packed land 0xffff

(* Fetch a recycled copy record and reinitialize every mutable field to
   dispatch state; role-specific fields are overwritten by the caller
   before the copy is enqueued. *)
let acquire_copy st (g : group) cluster role op issue_class =
  let s = Freelist.Slab.alloc st.copy_pool in
  if s = Array.length st.copies then st.copies <- grow_records st.copies;
  if (copy_at st s).c_slot <> s then st.copies.(s) <- make_pool_copy s;
  let c = copy_at st s in
  c.c_seq <- g.g_seq;
  c.c_cluster <- cluster;
  c.c_role <- role;
  c.c_op <- op;
  c.c_issue_class <- issue_class;
  c.c_nsrcs <- 0;
  c.c_dst_new <- -1;
  c.c_forwards <- false;
  c.c_receives_result <- false;
  c.c_result_forward <- false;
  c.c_has_slave_operand <- false;
  c.c_num_operand_entries <- 0;
  c.c_state <- C_waiting;
  c.c_issue <- -1;
  c.c_finish <- max_int;
  c.c_pending <- 0;
  c.c_operand_live <- 0;
  c.c_result_entry <- -1;
  c.c_master_cluster <- cluster;
  c.c_group <- g.g_slot;
  c

(* Scenario counter names, preallocated (indexed by Distribution.scenario,
   1-5; 0 is never produced). *)
let scenario_counters =
  [| "scenario_0"; "scenario_1"; "scenario_2"; "scenario_3"; "scenario_4"; "scenario_5" |]

let seq_order st a b = compare (copy_at st a).c_seq (copy_at st b).c_seq

(* Shift the copies younger than [c] up by one from position [i], the
   free one, and put [c] in the hole. *)
let rec insert_by_seq st rq (c : copy) i =
  if i > 0 && (copy_at st (Vec.get rq (i - 1))).c_seq > c.c_seq then begin
    Vec.set rq i (Vec.get rq (i - 1));
    insert_by_seq st rq c (i - 1)
  end
  else Vec.set rq i c.c_slot

(* Insert into the copy's per-queue ready list, which stays in seq order
   (the scan engine issues oldest-first within a queue). A copy is on at
   most one cluster's list once, so seqs on a list are distinct, and a
   newly dispatched copy, the common case, is the youngest. *)
let ready_push st (c : copy) =
  let rq = st.clusters.(c.c_cluster).ready_qs.(queue_of_code c.c_issue_class st.cfg.queue_split) in
  let n = Vec.length rq in
  Vec.push rq c.c_slot;
  if n > 0 && (copy_at st (Vec.get rq (n - 1))).c_seq > c.c_seq then insert_by_seq st rq c n

(* Every wheel entry, a copy slot, goes through here, so [wheel_horizon]
   bounds the keys of all entries pending now: [replay] holds squashed
   copies in limbo until that cycle has drained. *)
let schedule st wheel ~key s =
  if key > st.wheel_horizon then st.wheel_horizon <- key;
  Bucket_queue.add wheel ~key s

(* Wakeup-engine dispatch: count the events that must fire before the
   copy can issue, and index the copy under each. A source already
   written goes unrecorded; one with a known future ready cycle
   schedules the copy on the source wheel; a truly pending one parks the
   copy in the producer register's wait list (moved to the wheel when the
   producer issues and calls [set_dst_ready]). *)
let rec register_srcs st cl (c : copy) i pending =
  if i >= c.c_nsrcs then pending
  else begin
    let code = c.c_srcs.(i) in
    let ready = Regfile.ready_at cl.rf (src_bank code) (src_phys code) in
    let pending =
      if ready = max_int then begin
        Vec.push cl.wait_regs.(code land 1).(code lsr 1) c.c_slot;
        pending + 1
      end
      else if ready > st.cycle then begin
        schedule st st.src_wheel ~key:ready c.c_slot;
        pending + 1
      end
      else pending
    in
    register_srcs st cl c (i + 1) pending
  end

(* A copy's partners count like pending sources: §2.1's transfer rules
   fix the cycle a partner lets the copy issue as soon as that partner
   issues. A master waits for one event per operand-forwarding slave,
   scheduled by that slave's issue at [issue + hop]; a pure
   result-receiving slave waits for one, scheduled by [forward_results]
   at the master's issue. A copy with nothing outstanding goes straight
   to the ready list. A copy that a full transfer buffer holds back
   leaves it again until an entry frees (see [park]), so a
   ready list holds only copies the cycle's issue budget, the divider or
   the starvation freeze can still block, or that wait one cycle for an
   entry already freed. *)
let register_copy st (c : copy) ~partners =
  let pending = register_srcs st st.clusters.(c.c_cluster) c 0 partners in
  c.c_pending <- pending;
  if pending = 0 then ready_push st c

let enqueue_copy st cl q (c : copy) ~partners =
  match st.engine with
  | `Scan -> Deque.push_back cl.dqs.(q) c.c_slot
  | `Wakeup -> register_copy st c ~partners

(* Whether the conditional branch fetched at [seq] with this token was
   mispredicted (never, for the -1 of every other instruction). *)
let mispredicted st seq tok =
  tok >= 0 && Mcfarling.predicted_taken tok <> Flat_trace.branch_taken st.trace seq

let acquire_group st seq tok scenario =
  let s = Freelist.Slab.alloc st.group_pool in
  if s = Array.length st.groups then st.groups <- grow_records st.groups;
  if (group_at st s).g_slot <> s then st.groups.(s) <- make_pool_group s;
  let g = group_at st s in
  g.g_seq <- seq;
  g.g_scenario <- scenario;
  g.g_master <- -1;
  g.g_nslaves <- 0;
  g.g_token <- tok;
  g.g_mispred <- mispredicted st seq tok;
  Deque.push_back st.rob s;
  g

(* Distribution plans memoized per [(pc lsl 3) lor sel], with each
   plan's scenario beside it ([validate_config] caps clusters at 8, so
   [sel] fits three bits). [sel] is the tie-break preference under
   [Static] and the forced master under a dynamic policy; a state uses
   one or the other, never both. Both planners are pure in (assignment,
   sel, instr), so each static instruction is planned at most once per
   [sel] per assignment. A fresh (non-interned) instruction — only
   possible on hand-built traces that reuse a pc — just replans its
   slot. Returns the slot. *)
let plan_slot st ~pc ~sel instr =
  let key = (pc lsl 3) lor sel in
  let cap = Array.length st.memo_plans in
  if key >= cap then begin
    let ncap = imax (key + 1) (imax 128 (2 * cap)) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    st.memo_plans <- grow st.memo_plans (Distribution.Single { cluster = 0 });
    st.memo_scenarios <- grow st.memo_scenarios 0;
    st.memo_instrs <- grow st.memo_instrs st.plan_dummy
  end;
  if st.memo_instrs.(key) != instr then begin
    let p =
      if st.steer_dynamic then Distribution.plan_steered st.assignment ~master:sel instr
      else Distribution.plan st.assignment ~prefer:sel instr
    in
    st.memo_plans.(key) <- p;
    st.memo_scenarios.(key) <- Distribution.scenario p;
    st.memo_instrs.(key) <- instr
  end;
  key

(* Queue and class per slave copy. A slave that forwards nothing must
   receive the result, so [dst_bank]'s filler value (passed when the
   instruction has no destination) is never consulted. *)
let slave_issue_class dst_bank (sl : Distribution.slave) =
  match sl.Distribution.s_forward_srcs with
  | r :: _ -> bank_of_op_for_slot (Regfile.bank_of_reg r)
  | [] -> bank_of_op_for_slot dst_bank

(* The Multi-path admission checks and attribute scans below are
   top-level recursions over the memoized plan's slave list: the old
   [List.for_all]/[List.exists] chains captured dispatch locals in a
   fresh closure per attempt. *)
let rec multi_room_ok st dst_bank (slaves : Distribution.slave list) =
  match slaves with
  | [] -> true
  | sl :: rest ->
    let scl = st.clusters.(sl.Distribution.s_cluster) in
    let sq = queue_of_code (slave_issue_class dst_bank sl) st.cfg.queue_split in
    scl.dq_waiting.(sq) < queue_capacity st.cfg.queue_split st.cfg.dq_entries sq
    && multi_room_ok st dst_bank rest

let rec multi_phys_ok st bank (slaves : Distribution.slave list) =
  match slaves with
  | [] -> true
  | sl :: rest ->
    ((not sl.Distribution.s_receives_result)
    || Regfile.free_count st.clusters.(sl.Distribution.s_cluster).rf bank > 0)
    && multi_phys_ok st bank rest

let rec count_forwarding (slaves : Distribution.slave list) n =
  match slaves with
  | [] -> n
  | sl :: rest ->
    count_forwarding rest (match sl.Distribution.s_forward_srcs with [] -> n | _ :: _ -> n + 1)

let rec any_slave_receives (slaves : Distribution.slave list) =
  match slaves with
  | [] -> false
  | sl :: rest -> sl.Distribution.s_receives_result || any_slave_receives rest

let rec dispatch_slaves st (g : group) op dst dst_bank master scenario
    (slaves : Distribution.slave list) =
  match slaves with
  | [] -> ()
  | sl :: rest ->
    let scl = st.clusters.(sl.Distribution.s_cluster) in
    let cls = slave_issue_class dst_bank sl in
    let sq = queue_of_code cls st.cfg.queue_split in
    let sc = acquire_copy st g sl.Distribution.s_cluster Slave_copy op cls in
    (* Forwarded sources look up the pre-rename map, like every other
       source. A steered plan can make one slave both forward a register
       and receive the result into it (impossible under static masters,
       where the source+destination cluster always wins the majority);
       renaming first would have the slave forward its own pending
       result — a dispatch-time deadlock cycle. *)
    fill_srcs scl.rf sc [] sl.Distribution.s_forward_srcs 0;
    if sl.Distribution.s_receives_result then set_copy_dst sc scl.rf dst;
    sc.c_forwards <- (match sl.Distribution.s_forward_srcs with [] -> false | _ :: _ -> true);
    sc.c_receives_result <- sl.Distribution.s_receives_result;
    sc.c_num_operand_entries <- List.length sl.Distribution.s_forward_srcs;
    sc.c_master_cluster <- master;
    g.g_slaves.(g.g_nslaves) <- sc.c_slot;
    g.g_nslaves <- g.g_nslaves + 1;
    (* A pure result-receiving slave also waits for its master. *)
    enqueue_copy st scl sq sc ~partners:(if sc.c_forwards then 0 else 1);
    scl.dq_waiting.(sq) <- scl.dq_waiting.(sq) + 1;
    scl.cl_waiting <- scl.cl_waiting + 1;
    if st.observed then
      st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq;
                             cluster = sl.Distribution.s_cluster; role = Slave_copy;
                             scenario });
    dispatch_slaves st g op dst dst_bank master scenario rest

(* Occupancy-based steering: the least-loaded cluster by the running
   [cl_waiting] totals, lowest index winning ties (strict [<], so two
   clusters reproduce the historical [<=] comparison exactly). A
   top-level recursion — a closure or ref pair here would put dispatch
   allocation back on the hot path. *)
let rec steer_argmin (clusters : cluster_state array) i n best best_w =
  if i >= n then best
  else begin
    let w = clusters.(i).cl_waiting in
    if w < best_w then steer_argmin clusters (i + 1) n i w
    else steer_argmin clusters (i + 1) n best best_w
  end

(* Dependence steering: the cluster owning the producer of the first
   not-yet-ready (or never-written) non-zero local source, in operand
   order. Global sources are readable everywhere and pin nothing; -1
   when every source is ready, global or zero. A top-level recursion for
   the same reason as [steer_argmin]. *)
let rec steer_dependence st (srcs : Reg.t list) =
  match srcs with
  | [] -> -1
  | r :: rest ->
    if Reg.is_zero r then steer_dependence st rest
    else begin
      match Assignment.placement st.assignment r with
      | Assignment.Global -> steer_dependence st rest
      | Assignment.Local c ->
        let rf = st.clusters.(c).rf in
        let bank = Regfile.bank_of_reg r in
        if Regfile.ready_at rf bank (Regfile.lookup rf r) > st.cycle then c
        else steer_dependence st rest
    end

(* Dependence steering with the least-loaded cluster as its fallback. *)
let steer_dependence_or_load st (instr : Instr.t) n =
  let c = steer_dependence st instr.Instr.srcs in
  if c >= 0 then c
  else begin
    st.steer_kind <- 1;
    steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
  end

(* The dynamic policy's cluster choice for this dispatch attempt; also
   records the decision's classification in [steer_kind] so a successful
   dispatch can promote it to the right counter. Never called under
   [Static] or with one cluster. *)
let steer_cluster st policy (instr : Instr.t) ~pc n =
  st.steer_kind <- 0;
  match (policy : Steering.policy) with
  | Steering.Static -> assert false
  | Steering.Modulo -> st.steer_rr
  | Steering.Load -> steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
  | Steering.Dependence -> steer_dependence_or_load st instr n
  | Steering.Ineffectual ->
    if Steering.Ineff_table.predict_dead st.ineff ~pc then begin
      st.steer_kind <- 2;
      n - 1
    end
    else steer_dependence_or_load st instr n

(* Dispatch the instruction at trace position [seq], fetched with
   predictor token [tok]. *)
let try_dispatch_one st seq tok =
  let cfg = st.cfg in
  let instr = Flat_trace.instr st.trace seq in
  let pc = Flat_trace.pc st.trace seq in
  let n = Array.length st.clusters in
  let sel =
    if st.steer_dynamic then steer_cluster st cfg.steering instr ~pc n
    else if n = 1 then 0
    else steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
  in
  let slot = plan_slot st ~pc ~sel instr in
  let scenario = st.memo_scenarios.(slot) in
  if Deque.length st.rob >= rob_capacity then begin
    incr st.hot.k_stall_rob_full;
    false
  end
  else
    match st.memo_plans.(slot) with
    | Distribution.Single { cluster } ->
      let cl = st.clusters.(cluster) in
      let dst = effective_dst instr in
      let op = Op_code.of_class instr.Instr.op in
      let q = queue_of_code op cfg.queue_split in
      if cl.dq_waiting.(q) >= queue_capacity cfg.queue_split cfg.dq_entries q then begin
        incr st.hot.k_stall_dq_full;
        false
      end
      else if
        match dst with
        | Some d -> Regfile.free_count cl.rf (Regfile.bank_of_reg d) = 0
        | None -> false
      then begin
        incr st.hot.k_stall_phys;
        false
      end
      else begin
        let g = acquire_group st seq tok scenario in
        let c = acquire_copy st g cluster Single_copy op op in
        (* Sources look up the pre-rename map, so fill before renaming
           (the destination may also be a source). *)
        fill_srcs cl.rf c [] instr.Instr.srcs 0;
        set_copy_dst c cl.rf dst;
        g.g_master <- c.c_slot;
        enqueue_copy st cl q c ~partners:0;
        cl.dq_waiting.(q) <- cl.dq_waiting.(q) + 1;
        cl.cl_waiting <- cl.cl_waiting + 1;
        incr st.hot.k_single_distributed;
        incr st.hot.k_scenarios.(scenario);
        if st.observed then
          st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq; cluster; role = Single_copy;
                                 scenario });
        true
      end
    | Distribution.Multi { master; slaves; master_writes_reg } ->
      let mcl = st.clusters.(master) in
      let dst = effective_dst instr in
      let dst_bank =
        match dst with Some d -> Regfile.bank_of_reg d | None -> Regfile.B_int
      in
      let op = Op_code.of_class instr.Instr.op in
      let mq = queue_of_code op cfg.queue_split in
      let room_ok =
        mcl.dq_waiting.(mq) < queue_capacity cfg.queue_split cfg.dq_entries mq
        && multi_room_ok st dst_bank slaves
      in
      let phys_ok =
        match dst with
        | None -> true
        | Some _ ->
          ((not master_writes_reg) || Regfile.free_count mcl.rf dst_bank > 0)
          && multi_phys_ok st dst_bank slaves
      in
      if not room_ok then begin
        incr st.hot.k_stall_dq_full;
        false
      end
      else if not phys_ok then begin
        incr st.hot.k_stall_phys;
        false
      end
      else begin
        let g = acquire_group st seq tok scenario in
        let mc = acquire_copy st g master Master_copy op op in
        fill_srcs mcl.rf mc slaves instr.Instr.srcs 0;
        if master_writes_reg then set_copy_dst mc mcl.rf dst;
        let forwarding = count_forwarding slaves 0 in
        mc.c_has_slave_operand <- forwarding > 0;
        mc.c_result_forward <- any_slave_receives slaves;
        g.g_master <- mc.c_slot;
        enqueue_copy st mcl mq mc ~partners:forwarding;
        mcl.dq_waiting.(mq) <- mcl.dq_waiting.(mq) + 1;
        mcl.cl_waiting <- mcl.cl_waiting + 1;
        if st.observed then
          st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq; cluster = master;
                                 role = Master_copy; scenario });
        dispatch_slaves st g op dst dst_bank master scenario slaves;
        incr st.hot.k_dual_distributed;
        incr st.hot.k_scenarios.(scenario);
        true
      end

(* Bookkeeping for a successful dynamically steered dispatch: promote
   the decision classification recorded by [steer_cluster] and advance
   the round-robin counter (per dispatched instruction, so a stalled
   attempt retries the same cluster). *)
let note_steered_dispatch st =
  (match st.steer_kind with
  | 0 -> st.steer_hits <- st.steer_hits + 1
  | 1 -> st.steer_fallbacks <- st.steer_fallbacks + 1
  | _ -> st.steer_dead_exiles <- st.steer_dead_exiles + 1);
  if st.cfg.steering = Steering.Modulo then
    st.steer_rr <- (st.steer_rr + 1) mod st.n_clust

let dispatch_phase st =
  let n = ref 0 in
  let blocked = ref false in
  while (not !blocked) && !n < st.cfg.dispatch_width do
    if Deque.is_empty st.fetch_buffer then blocked := true
    else begin
      let seq = st.trace_idx - Deque.length st.fetch_buffer in
      if try_dispatch_one st seq (Deque.front st.fetch_buffer) then begin
        if st.steer_dynamic then note_steered_dispatch st;
        ignore (Deque.pop_front st.fetch_buffer);
        incr n
      end
      else blocked := true
    end
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

(* Interconnect hop latency from cluster [src] to cluster [dst], one
   read of the table [init_state] builds: 1 on point-to-point, the dual
   machine's transfer cost. *)
let[@inline] hop st ~src ~dst = st.hops.((src * st.n_clust) + dst)

(* The one room rule: [buf] can take [n] more entries at [cycle]. *)
let[@inline] has_room buf ~n ~cycle = Transfer_buffer.available buf ~cycle >= n

(* Why a copy cannot issue ([blocker]), as an immediate int, in the order
   checked. A buffer cause carries the cluster whose buffer is short in
   its low three bits ([validate_config] caps clusters at 8). *)
let b_ready = 0
let b_not_waiting = 1
let b_source = 2
let b_slave = 3  (* a master: an operand-forwarding slave has not arrived *)
let b_master = 4  (* a pure result-receiving slave: the master's result has not *)
let b_operand_buf = 8  (* + k: cluster k's operand buffer *)
let b_result_buf = 16  (* + k: cluster k's result buffer *)
let b_freeze = 5
let b_fu = 6  (* the cycle's issue budget or the divider *)
let is_buffer b = b >= b_operand_buf

(* The per-candidate checks below are top-level recursions rather than
   [Array.iter]/[List.for_all] closures: without flambda each closure
   capturing locals costs a minor-heap block per candidate examined,
   which dominated the issue-phase allocation. *)
let rec srcs_ready cl (c : copy) ~cycle i =
  i >= c.c_nsrcs
  ||
  let code = c.c_srcs.(i) in
  Regfile.ready_at cl.rf (src_bank code) (src_phys code) <= cycle
  && srcs_ready cl c ~cycle (i + 1)

(* Every operand-forwarding slave issued at least [hop] cycles before
   [cycle], so its operands are in the master's cluster. *)
let rec slaves_arrived st (g : group) ~cycle i =
  i >= g.g_nslaves
  ||
  let s = slave_of st g i in
  ((not s.c_forwards)
  || (s.c_state <> C_waiting
     && cycle >= s.c_issue + hop st ~src:s.c_cluster ~dst:s.c_master_cluster))
  && slaves_arrived st g ~cycle (i + 1)

(* The cluster of the first receiving slave, in slave order, whose
   result buffer is full at [cycle]; -1 when each has room. *)
let rec full_result_buf st (g : group) ~cycle i =
  if i >= g.g_nslaves then -1
  else
    let s = slave_of st g i in
    if s.c_receives_result && not (has_room st.clusters.(s.c_cluster).result_buf ~n:1 ~cycle)
    then s.c_cluster
    else full_result_buf st g ~cycle (i + 1)

(* The cause for a copy that claims transfer-buffer entries at issue:
   [b_kind + k] when cluster [k]'s buffer is short ([k >= 0]), else the
   anti-livelock freeze, else ready. A replay is deterministic, so a
   head that starves through one would starve forever (younger slaves
   refill the buffer before its slave reaches it, e.g. from a
   scanned-earlier per-class queue). Once it does, groups younger than
   it may not claim entries until it drains. *)
let claim st (c : copy) b_kind k =
  if k >= 0 then b_kind + k
  else if st.starving_seq >= 0 && c.c_seq > st.starving_seq then b_freeze
  else b_ready

(* The issue rules of §2.1, stated once: why [c] cannot issue at
   [cycle], or [b_ready]. In order: waiting; sources ready; partners
   arrived (a master's operand-forwarding slaves issued [hop] cycles
   ago; a pure result-receiving slave's master result, due at
   [max (issue + hop) (finish - 2 + hop)], the paper's
   [master_finish - 1] at one hop); buffer room (a forwarding slave's
   [c_num_operand_entries] in its master's operand buffer; a master's
   first full result buffer among its receiving slaves'); the freeze;
   the issue budget. So a buffer counts whatever the freeze and the FUs
   say. The budget is current only at [st.cycle] in the cluster's own
   issue walk: elsewhere [b_fu] and [b_ready] mean nothing, and callers
   read only buffer causes. *)
let blocker st (c : copy) ~cycle =
  let cl = st.clusters.(c.c_cluster) in
  if c.c_state <> C_waiting then b_not_waiting
  else if not (srcs_ready cl c ~cycle 0) then b_source
  else begin
    let b =
      match c.c_role with
      | Single_copy -> b_ready
      | Master_copy ->
        if c.c_has_slave_operand && not (slaves_arrived st (group_of st c) ~cycle 0) then b_slave
        else if c.c_result_forward then
          claim st c b_result_buf (full_result_buf st (group_of st c) ~cycle 0)
        else b_ready
      | Slave_copy when c.c_forwards ->
        let k = c.c_master_cluster in
        let room = has_room st.clusters.(k).operand_buf ~n:c.c_num_operand_entries ~cycle in
        claim st c b_operand_buf (if room then -1 else k)
      | Slave_copy ->
        let m = master_of st (group_of st c) in
        let h = hop st ~src:m.c_cluster ~dst:c.c_cluster in
        if m.c_state = C_issued && cycle >= imax (m.c_issue + h) (m.c_finish - 2 + h) then
          b_ready
        else b_master
    in
    if b = b_ready && not (Fu.can_issue cl.fu ~cycle c.c_issue_class) then b_fu else b
  end

(* A copy's seq is its group's, the trace position its memory address is
   read back from. *)
let finish_of_issue st (c : copy) =
  let issue = st.cycle in
  let op = c.c_op in
  if op = Op_code.load then begin
    let addr = Flat_trace.mem_addr st.trace c.c_seq in
    let ready = Cache.access st.dcache ~cycle:(issue + 1) ~addr ~write:false in
    imax (issue + 2) (ready + 1)
  end
  else if op = Op_code.store then begin
    let addr = Flat_trace.mem_addr st.trace c.c_seq in
    ignore (Cache.access st.dcache ~cycle:(issue + 1) ~addr ~write:true);
    issue + 1
  end
  else issue + Op_code.latency op

let set_dst_ready st (c : copy) cycle =
  if c.c_dst_new >= 0 then begin
    let cl = st.clusters.(c.c_cluster) in
    Regfile.set_ready cl.rf c.c_dst_bank c.c_dst_new cycle;
    match st.engine with
    | `Scan -> ()
    | `Wakeup ->
      (* Move every copy waiting on this register onto the source wheel
         at its ready cycle. Stale (squashed) waiters are dropped here;
         live waiters of a squashed producer cannot exist, because a
         squash always covers all younger instructions. *)
      let wv = cl.wait_regs.(bank_bit c.c_dst_bank).(c.c_dst_new) in
      let nw = Vec.length wv in
      if nw > 0 then begin
        for i = 0 to nw - 1 do
          let w = Vec.get wv i in
          if (copy_at st w).c_state = C_waiting then schedule st st.src_wheel ~key:cycle w
        done;
        Vec.clear wv
      end
  end

let note_finish st f = if f < max_int && f > st.max_finish then st.max_finish <- f

(* Every transfer-buffer entry is freed through here. A freed entry is
   allocatable from [cycle + 1], so that is when each copy parked on the
   buffer ([park]) gets its event; the scan engine parks
   nothing. *)
let free_entry st buf waiters entry =
  Transfer_buffer.free buf ~cycle:st.cycle entry;
  let n = Vec.length waiters in
  if n > 0 then begin
    for i = 0 to n - 1 do
      schedule st st.src_wheel ~key:(st.cycle + 1) (Vec.get waiters i)
    done;
    Vec.clear waiters
  end

(* Consume the forwarded operands: free every slave's operand entries
   (they live in [cl], the master's cluster's, buffer). Entries are
   released newest-first, matching the order of the historical
   prepend-built entry list. *)
let rec consume_slave_operands st cl (g : group) i =
  if i < g.g_nslaves then begin
    let s = slave_of st g i in
    (if s.c_operand_live > 0 then begin
       for j = s.c_operand_live - 1 downto 0 do
         free_entry st cl.operand_buf cl.operand_waiters s.c_operand_ents.(j)
       done;
       s.c_operand_live <- 0
     end);
    consume_slave_operands st cl g (i + 1)
  end

(* Reserve a result-transfer entry in every receiving slave's cluster. *)
let rec forward_results st (c : copy) (g : group) i =
  if i < g.g_nslaves then begin
    let s = slave_of st g i in
    (if s.c_receives_result then begin
       let other = st.clusters.(s.c_cluster) in
       let h = hop st ~src:c.c_cluster ~dst:s.c_cluster in
       s.c_result_entry <- Transfer_buffer.alloc other.result_buf ~cycle:st.cycle;
       if st.observed then
         st.emit
           (Ev_result_forward
              { cycle = c.c_finish + h - 1; seq = c.c_seq; from_cluster = c.c_cluster;
                to_cluster = s.c_cluster });
       (* The result reaches the slave's cluster at a cycle known now: a
          suspended scenario-5 slave wakes then (wake wheel), and a pure
          result-receiving slave's partner event fires then (source
          wheel). *)
       match st.engine with
       | `Wakeup ->
         let key = imax (st.cycle + h) (c.c_finish - 2 + h) in
         if not s.c_forwards then schedule st st.src_wheel ~key s.c_slot
         else if s.c_state = C_suspended then schedule st st.wake_wheel ~key s.c_slot
       | `Scan -> ()
     end);
    forward_results st c g (i + 1)
  end

let issue_executing_copy st (c : copy) =
  (* Single copy or master copy: runs the real operation. *)
  let cl = st.clusters.(c.c_cluster) in
  Fu.issue cl.fu ~cycle:st.cycle c.c_issue_class;
  c.c_state <- C_issued;
  c.c_issue <- st.cycle;
  c.c_finish <- finish_of_issue st c;
  note_finish st c.c_finish;
  set_dst_ready st c c.c_finish;
  if st.observed then begin
    st.emit
      (Ev_issue { cycle = st.cycle; seq = c.c_seq; cluster = c.c_cluster; role = c.c_role });
    st.emit
      (Ev_writeback { cycle = c.c_finish; seq = c.c_seq; cluster = c.c_cluster; role = c.c_role })
  end;
  if c.c_has_slave_operand then consume_slave_operands st cl (group_of st c) 0;
  if c.c_result_forward then forward_results st c (group_of st c) 0;
  (* Branch bookkeeping: redirect and deferred predictor training. *)
  if c.c_op = Op_code.control then begin
    let g = group_of st c in
    if g.g_token >= 0 then begin
      Deque.push_back st.pending_train c.c_finish;
      Deque.push_back st.pending_train c.c_seq;
      Deque.push_back st.pending_train g.g_token
    end;
    if g.g_mispred then begin
      st.redirect_pending <- false;
      st.fetch_resume <- imax st.fetch_resume (c.c_finish + st.cfg.redirect_penalty);
      incr st.hot.k_redirects
    end
  end

let issue_slave_copy st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  Fu.issue cl.fu ~cycle:st.cycle c.c_issue_class;
  c.c_issue <- st.cycle;
  if st.observed then
    st.emit
      (Ev_issue { cycle = st.cycle; seq = c.c_seq; cluster = c.c_cluster; role = Slave_copy });
  incr st.hot.k_slave_issues;
  if c.c_forwards then begin
    (* Write the operand(s) into the master cluster's operand buffer. The
       historical prepend-built list held the entries newest-first; the
       scratch array keeps allocation order, so index [n-1] is the newest
       and frees walk the array backwards. *)
    let master_cl = st.clusters.(c.c_master_cluster) in
    let h = hop st ~src:c.c_cluster ~dst:c.c_master_cluster in
    let n = c.c_num_operand_entries in
    for k = 0 to n - 1 do
      c.c_operand_ents.(k) <- Transfer_buffer.alloc master_cl.operand_buf ~cycle:st.cycle
    done;
    c.c_operand_live <- n;
    (* The operands reach the master's cluster [h] cycles from now: its
       partner event for this slave. *)
    (match st.engine with
    | `Wakeup -> schedule st st.src_wheel ~key:(st.cycle + h) (group_of st c).g_master
    | `Scan -> ());
    if st.observed then
      st.emit
        (Ev_operand_forward
           { cycle = st.cycle + h; seq = c.c_seq; from_cluster = c.c_cluster;
             to_cluster = c.c_master_cluster });
    if c.c_receives_result then begin
      (* Scenario 5: wait (without re-issuing) for the master's result. *)
      c.c_state <- C_suspended;
      if st.observed then
        st.emit (Ev_suspend { cycle = st.cycle + h; seq = c.c_seq; cluster = c.c_cluster })
    end
    else begin
      c.c_state <- C_issued;
      c.c_finish <- st.cycle + h;
      note_finish st c.c_finish
    end
  end
  else begin
    (* Scenarios 3/4: read the forwarded result, write the register. *)
    assert (c.c_result_entry >= 0);
    free_entry st cl.result_buf cl.result_waiters c.c_result_entry;
    c.c_result_entry <- -1;
    c.c_state <- C_issued;
    c.c_finish <- st.cycle + 1;
    note_finish st c.c_finish;
    set_dst_ready st c c.c_finish;
    if st.observed then
      st.emit
        (Ev_writeback { cycle = c.c_finish; seq = c.c_seq; cluster = c.c_cluster;
                        role = Slave_copy })
  end

(* Shared per-candidate issue step: the copy issues when [blocker] finds
   it ready at this cycle. Returns the cause, [b_ready] if it issued. *)
let try_issue st cl qi (c : copy) =
  let b = blocker st c ~cycle:st.cycle in
  if b = b_ready then begin
    (match c.c_role with
    | Single_copy | Master_copy -> issue_executing_copy st c
    | Slave_copy -> issue_slave_copy st c);
    (* The paper's issue-disorder metric: issues younger than an
       already-issued instruction. *)
    if c.c_seq < st.max_issued_seq then begin
      incr st.hot.k_ooo_issues;
      st.hot.k_ooo_issue_distance := !(st.hot.k_ooo_issue_distance) + (st.max_issued_seq - c.c_seq)
    end
    else st.max_issued_seq <- c.c_seq;
    cl.dq_waiting.(qi) <- cl.dq_waiting.(qi) - 1;
    cl.cl_waiting <- cl.cl_waiting - 1
  end;
  b

(* The per-cycle issue walk must not build closures or refs (OCaml
   without flambda heap-allocates both), so the loops below are top-level
   recursions threading accumulators as arguments; [st.scratch_work]
   accumulates the examined-entries profile count for the cycle. The
   issued and clusters-active totals travel packed into one immediate int
   ([issued lsl 4 lor active]; validate_config caps clusters at 8). *)

(* Compact one dispatch queue: drop copies that left it. *)
let rec compact_dq st dq n =
  if n > 0 then begin
    let s = Deque.pop_front dq in
    if (copy_at st s).c_state = C_waiting then Deque.push_back dq s;
    compact_dq st dq (n - 1)
  end

(* Greedy oldest-first scan under the shared per-cycle budget. *)
let rec scan_dq st cl qi dq i n issued =
  if i >= n || Fu.issued_this_cycle cl.fu >= st.cfg.issue_limits.Issue_rules.total then
    issued
  else begin
    st.scratch_work <- st.scratch_work + 1;
    let issued =
      if try_issue st cl qi (copy_at st (Deque.get dq i)) = b_ready then issued + 1 else issued
    in
    scan_dq st cl qi dq (i + 1) n issued
  end

let rec scan_cluster_queues st cl qi issued =
  if qi >= Array.length cl.dqs then issued
  else begin
    let dq = cl.dqs.(qi) in
    let n = Deque.length dq in
    st.scratch_work <- st.scratch_work + n;
    compact_dq st dq n;
    let issued = scan_dq st cl qi dq 0 (Deque.length dq) issued in
    scan_cluster_queues st cl (qi + 1) issued
  end

let rec issue_scan_clusters st ci issued active =
  if ci >= Array.length st.clusters then (issued lsl 4) lor active
  else begin
    let cl = st.clusters.(ci) in
    let before = Fu.total_issued cl.fu in
    Fu.new_cycle cl.fu;
    let issued = scan_cluster_queues st cl 0 issued in
    let active = if Fu.total_issued cl.fu > before then active + 1 else active in
    issue_scan_clusters st (ci + 1) issued active
  end

(* Event-driven engine: a copy reaches its queue's ready list only once
   its source, partner and buffer events have all fired (see
   [register_copy] and [park]), so the walk below touches just the
   copies the cycle's issue budget, the divider or the starvation freeze
   can still block, plus this cycle's newly-ready ones — not the whole
   queue. Issue order — and therefore every downstream statistic — is
   identical to the scan engine because the lists are kept in seq order,
   both engines issue through [try_issue]'s one [blocker], and a copy off
   the lists would fail it. *)
let slot_waiting st s = (copy_at st s).c_state = C_waiting

(* An event due this cycle; the copy is ready once its last one fires.
   Installed once as [st.src_drain] so the per-cycle drain passes a
   preallocated callback. *)
let src_wakeup st s =
  let c = copy_at st s in
  if c.c_state = C_waiting then begin
    c.c_pending <- c.c_pending - 1;
    if c.c_pending = 0 then ready_push st c
  end

(* The fourth wakeup event: a transfer-buffer entry freeing. A copy
   whose cause at [cycle + 1] is still a buffer cannot issue before that
   buffer frees an entry: the only room [cycle + 1] adds is an entry
   freed earlier this cycle, and every later free schedules the buffer's
   waiters ([free_entry]). It leaves its ready list with that one event
   pending, on the list of the buffer [blocker] names. Room only grows
   from [cycle] to [cycle + 1], so only a buffer cause at [cycle] is
   classified again. *)
let park st (c : copy) b =
  is_buffer b
  &&
  let cl = st.clusters.(b land 7) in
  c.c_pending <- 1;
  Vec.push (if b < b_result_buf then cl.operand_waiters else cl.result_waiters) c.c_slot;
  true

(* One oldest-first pass over a ready list of [n] copies under the
   cluster's budget, compacting as it goes: issued and parked copies
   drop out and the rest slide down to [kept]. Once the budget is spent
   the unexamined tail slides down whole. Only waiting copies are ever
   on the list ([replay] purges squashed ones), and neither issuing nor
   parking pushes onto a ready list, so [n] holds for the whole pass. *)
let rec issue_ready_q st cl qi rq i n kept issued =
  if i >= n || Fu.issued_this_cycle cl.fu >= st.cfg.issue_limits.Issue_rules.total then begin
    Vec.remove_range rq ~pos:kept ~len:(i - kept);
    issued
  end
  else begin
    st.scratch_work <- st.scratch_work + 1;
    let s = Vec.get rq i in
    let c = copy_at st s in
    let b = try_issue st cl qi c in
    if b = b_ready then issue_ready_q st cl qi rq (i + 1) n kept (issued + 1)
    else if is_buffer b && park st c (blocker st c ~cycle:(st.cycle + 1)) then
      issue_ready_q st cl qi rq (i + 1) n kept issued
    else begin
      if kept < i then Vec.set rq kept s;
      issue_ready_q st cl qi rq (i + 1) n (kept + 1) issued
    end
  end

let rec issue_wakeup_queues st cl qi issued =
  if qi >= Array.length cl.ready_qs then issued
  else begin
    let rq = cl.ready_qs.(qi) in
    let issued = issue_ready_q st cl qi rq 0 (Vec.length rq) 0 issued in
    issue_wakeup_queues st cl (qi + 1) issued
  end

let rec ready_lists_empty (rqs : Vec.t array) qi =
  qi >= Array.length rqs || (Vec.length rqs.(qi) = 0 && ready_lists_empty rqs (qi + 1))

(* A cluster with nothing ready is skipped whole. Its [Fu.new_cycle]
   waits for its next visit, so its budget is stale outside its own
   walk; callers of [blocker] there read only buffer causes. *)
let rec issue_wakeup_clusters st ci issued active =
  if ci >= Array.length st.clusters then (issued lsl 4) lor active
  else begin
    let cl = st.clusters.(ci) in
    if ready_lists_empty cl.ready_qs 0 then issue_wakeup_clusters st (ci + 1) issued active
    else begin
      let before = Fu.total_issued cl.fu in
      Fu.new_cycle cl.fu;
      let issued = issue_wakeup_queues st cl 0 issued in
      let active = if Fu.total_issued cl.fu > before then active + 1 else active in
      issue_wakeup_clusters st (ci + 1) issued active
    end
  end

(* The scan engine rescans every dispatch-queue entry every cycle; the
   wakeup engine first delivers this cycle's events. *)
let issue_phase st =
  st.scratch_work <- 0;
  let packed =
    match st.engine with
    | `Scan -> issue_scan_clusters st 0 0 0
    | `Wakeup ->
      Bucket_queue.drain_upto st.src_wheel ~key:st.cycle st.src_drain;
      issue_wakeup_clusters st 0 0 0
  in
  let issued = packed lsr 4 in
  prof_add st stage_issue st.scratch_work;
  if issued > 0 then incr st.hot.k_issue_active;
  if packed land 0xf >= 2 then incr st.hot.k_both_active;
  issued

(* Scenario-5 slaves wake when the master's result reaches their cluster. *)
let wake_slave st (s : copy) =
  let cl = st.clusters.(s.c_cluster) in
  free_entry st cl.result_buf cl.result_waiters s.c_result_entry;
  s.c_result_entry <- -1;
  s.c_state <- C_issued;
  s.c_finish <- st.cycle + 1;
  note_finish st s.c_finish;
  set_dst_ready st s s.c_finish;
  if st.observed then begin
    st.emit (Ev_wakeup { cycle = st.cycle; seq = s.c_seq; cluster = s.c_cluster });
    st.emit
      (Ev_writeback { cycle = s.c_finish; seq = s.c_seq; cluster = s.c_cluster;
                      role = Slave_copy })
  end

(* Reference engine: rescan the whole ROB for suspended slaves. *)
let wake_phase_scan st =
  let woke = ref 0 in
  let seen = ref 0 in
  Deque.iter
    (fun gs ->
      incr seen;
      let g = group_at st gs in
      let m = master_of st g in
      for i = 0 to g.g_nslaves - 1 do
        let s = slave_of st g i in
        incr seen;
        if s.c_state = C_suspended && m.c_state = C_issued then begin
          let h = hop st ~src:m.c_cluster ~dst:s.c_cluster in
          let wake_at = imax (m.c_issue + h) (m.c_finish - 2 + h) in
          if st.cycle >= wake_at && s.c_result_entry >= 0 then begin
            wake_slave st s;
            incr woke
          end
        end
      done)
    st.rob;
  prof_add st stage_wake !seen;
  !woke

(* Drain callback for the wake wheel, installed once as [st.wake_drain]. *)
let wake_collect st s =
  st.scratch_work <- st.scratch_work + 1;
  let c = copy_at st s in
  if c.c_state = C_suspended && c.c_result_entry >= 0 then Vec.push st.wake_scratch s

let rec wake_scratch_from st i =
  if i < Vec.length st.wake_scratch then begin
    wake_slave st (copy_at st (Vec.get st.wake_scratch i));
    wake_scratch_from st (i + 1)
  end

(* Event-driven engine: slaves were scheduled on the wake wheel at master
   issue (the wake cycle is known then); drain the due bucket and wake in
   seq order, matching the scan engine's ROB-order walk. Squashed slaves
   are filtered by state. *)
let wake_phase_wakeup st =
  st.scratch_work <- 0;
  Vec.clear st.wake_scratch;
  Bucket_queue.drain_upto st.wake_wheel ~key:st.cycle st.wake_drain;
  if Vec.length st.wake_scratch > 1 then Vec.sort ~cmp:st.by_seq st.wake_scratch;
  wake_scratch_from st 0;
  prof_add st stage_wake st.scratch_work;
  Vec.length st.wake_scratch

let wake_phase st =
  match st.engine with `Scan -> wake_phase_scan st | `Wakeup -> wake_phase_wakeup st

(* ------------------------------------------------------------------ *)
(* Retire                                                              *)
(* ------------------------------------------------------------------ *)

let copy_done st c = c.c_state = C_issued && c.c_finish <= st.cycle

let rec slaves_done st g i =
  i >= g.g_nslaves || (copy_done st (slave_of st g i) && slaves_done st g (i + 1))

let group_done st g = g.g_master >= 0 && copy_done st (master_of st g) && slaves_done st g 0

let retire_copy st (c : copy) =
  if c.c_dst_new >= 0 then
    Regfile.release st.clusters.(c.c_cluster).rf c.c_dst_bank c.c_dst_prev

(* Retiring a group hands its slots back to the pools. This is safe
   mid-flight: the issue phase compacts the dispatch/ready queues (on
   [c_state]) before the next dispatch can recycle a slot, the wheels
   were drained for every cycle up to the finish times already reached,
   and wait lists are cleared when the producer issues — so no stale
   slot of a retired copy is ever read. *)
let retire_group st g =
  retire_copy st (master_of st g);
  Freelist.Slab.free st.copy_pool g.g_master;
  for i = 0 to g.g_nslaves - 1 do
    retire_copy st (slave_of st g i);
    Freelist.Slab.free st.copy_pool g.g_slaves.(i)
  done;
  g.g_master <- -1;
  g.g_nslaves <- 0;
  Freelist.Slab.free st.group_pool g.g_slot

(* Ineffectuality training ([Steering.Ineffectual] only), performed at
   retire because groups leave the ROB in program order on both engines:
   mark every architectural source register as read, then — when the
   instruction overwrites a register — the previous writer's verdict is
   in: its result was dead iff nothing read the register in between.
   Sources are marked first so an instruction that reads and rewrites
   the same register vindicates the previous writer. *)
let rec mark_arch_reads st (srcs : Reg.t list) =
  match srcs with
  | [] -> ()
  | r :: rest ->
    if not (Reg.is_zero r) then st.arch_read.(Reg.flat_index r) <- true;
    mark_arch_reads st rest

let train_ineffectuality st seq =
  let instr = Flat_trace.instr st.trace seq in
  mark_arch_reads st instr.Instr.srcs;
  match instr.Instr.dst with
  | Some d when not (Reg.is_zero d) ->
    let i = Reg.flat_index d in
    let prev = st.arch_last_pc.(i) in
    if prev >= 0 then
      Steering.Ineff_table.train st.ineff ~pc:prev ~dead:(not st.arch_read.(i));
    st.arch_last_pc.(i) <- Flat_trace.pc st.trace seq;
    st.arch_read.(i) <- false
  | Some _ | None -> ()

let retire_phase st =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < st.cfg.retire_width do
    if (not (Deque.is_empty st.rob)) && group_done st (group_at st (Deque.front st.rob)) then begin
      let g = group_at st (Deque.pop_front st.rob) in
      incr st.hot.k_retired;
      if st.observed then st.emit (Ev_retire { cycle = st.cycle; seq = g.g_seq });
      if g.g_seq = st.starving_seq then st.starving_seq <- -1;
      if st.steer_train then train_ineffectuality st g.g_seq;
      retire_group st g;
      incr n
    end
    else continue_ := false
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

let fetch_phase st =
  if st.redirect_pending || st.cycle < st.fetch_resume then begin
    if Deque.length st.rob > 0 || st.trace_idx < Flat_trace.length st.trace then
      incr st.hot.k_fetch_stall;
    0
  end
  else begin
    let fetched = ref 0 in
    let blocked = ref false in
    while
      (not !blocked)
      && !fetched < st.cfg.fetch_width
      && Deque.length st.fetch_buffer < 2 * st.cfg.fetch_width
      && st.trace_idx < Flat_trace.length st.trace
    do
      let idx = st.trace_idx in
      let pc = Flat_trace.pc st.trace idx in
      let addr = pc * 4 in
      let line = addr / st.cfg.icache.Cache.line_bytes in
      let icache_ok =
        if line = st.last_fetch_line then true
        else begin
          let ready = Cache.access st.icache ~cycle:st.cycle ~addr ~write:false in
          st.last_fetch_line <- line;
          if ready > st.cycle then begin
            st.fetch_resume <- ready;
            incr st.hot.k_icache_fetch_misses;
            false
          end
          else true
        end
      in
      if not icache_ok then blocked := true
      else begin
        let tok =
          if Flat_trace.is_cond_branch st.trace idx then begin
            let tok = Mcfarling.predict st.predictor ~pc in
            Mcfarling.note_outcome st.predictor ~taken:(Flat_trace.branch_taken st.trace idx);
            tok
          end
          else -1
        in
        Deque.push_back st.fetch_buffer tok;
        if st.observed then st.emit (Ev_fetch { cycle = st.cycle; seq = idx });
        st.trace_idx <- st.trace_idx + 1;
        incr fetched;
        if mispredicted st idx tok then begin
          st.redirect_pending <- true;
          incr st.hot.k_mispredicted_fetches;
          blocked := true
        end
      end
    done;
    !fetched
  end

(* ------------------------------------------------------------------ *)
(* Replay (squash)                                                     *)
(* ------------------------------------------------------------------ *)

(* A group is buffer-blocked when [blocker] names a transfer buffer for
   any of its copies at this cycle. *)
let rec slave_buffer_blocked st (g : group) i =
  i < g.g_nslaves
  && (is_buffer (blocker st (slave_of st g i) ~cycle:st.cycle) || slave_buffer_blocked st g (i + 1))

let group_buffer_blocked st g =
  is_buffer (blocker st (master_of st g) ~cycle:st.cycle) || slave_buffer_blocked st g 0

(* The slot of the oldest buffer-blocked group, or -1. *)
let rec find_victim_from st n i =
  if i >= n then -1
  else
    let gs = Deque.get st.rob i in
    if group_buffer_blocked st (group_at st gs) then gs else find_victim_from st n (i + 1)

let find_replay_victim st =
  let v = find_victim_from st (Deque.length st.rob) 0 in
  if v >= 0 then v
  else if
    (* Fall back to the oldest group that is not finished. *)
    Deque.is_empty st.rob || group_done st (group_at st (Deque.front st.rob))
  then -1
  else Deque.front st.rob

(* Drop every [s] from the wait list [wv], from position [i] on, sliding
   the others down to [j]. *)
let rec purge_slot wv s i j =
  if i < Vec.length wv then begin
    let w = Vec.get wv i in
    if w = s then purge_slot wv s (i + 1) j
    else begin
      if j < i then Vec.set wv j w;
      purge_slot wv s (i + 1) (j + 1)
    end
  end
  else Vec.remove_range wv ~pos:j ~len:(i - j)

(* Remove a squashed waiter from the wait lists of its source registers.
   Required once records are pooled: the producer was squashed with it and
   will never issue, so nothing else would ever clear the slot, and a
   recycled slot must not be reachable from a stale list. *)
let purge_wait_regs st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  for i = 0 to c.c_nsrcs - 1 do
    let code = c.c_srcs.(i) in
    purge_slot cl.wait_regs.(code land 1).(code lsr 1) c.c_slot 0 0
  done

let squash_copy st (c : copy) =
  (* Return transfer-buffer entries: forwarded operands live in the master
     cluster's operand buffer; a reserved result entry lives in this
     (receiving slave's) cluster's result buffer. *)
  (if c.c_operand_live > 0 then begin
     let master_cl = st.clusters.(c.c_master_cluster) in
     for j = c.c_operand_live - 1 downto 0 do
       free_entry st master_cl.operand_buf master_cl.operand_waiters c.c_operand_ents.(j)
     done;
     c.c_operand_live <- 0
   end);
  if c.c_result_entry >= 0 then begin
    let cl = st.clusters.(c.c_cluster) in
    free_entry st cl.result_buf cl.result_waiters c.c_result_entry;
    c.c_result_entry <- -1
  end;
  (* Undo renaming (reverse dispatch order is guaranteed by the caller). *)
  if c.c_dst_new >= 0 then begin
    Regfile.undo_rename st.clusters.(c.c_cluster).rf c.c_dst_bank c.c_dst_reg
      ~new_phys:c.c_dst_new ~prev_phys:c.c_dst_prev;
    c.c_dst_new <- -1
  end;
  if Op_code.is_divide c.c_op && c.c_state = C_issued && c.c_finish > st.cycle then
    Fu.clear_divider st.clusters.(c.c_cluster).fu;
  if c.c_state = C_waiting then begin
    let cl = st.clusters.(c.c_cluster) in
    let q = queue_of_code c.c_issue_class st.cfg.queue_split in
    cl.dq_waiting.(q) <- cl.dq_waiting.(q) - 1;
    cl.cl_waiting <- cl.cl_waiting - 1;
    match st.engine with
    | `Wakeup when c.c_pending > 0 -> purge_wait_regs st c
    | `Wakeup | `Scan -> ()
  end;
  (* Squashed copies may still be referenced from the scan engine's
     dispatch queues, the ready lists and the wheels; every consumer
     filters on [c_state], so flipping the state hides the record. It
     cannot be recycled until those stale references are gone — park it
     in limbo; [replay] purges the ready lists and sets the flush
     watermark past the last possible stale wheel key. *)
  c.c_state <- C_squashed;
  Vec.push st.limbo c.c_slot;
  incr st.hot.k_squashed_copies

(* The issue walk keeps only waiting copies on the ready lists but stops
   reading states once a cluster's budget is spent, and a buffer's
   waiters leave their list only when an entry frees: [replay] drops the
   squashed ones here, through the state's preallocated filter, so a
   replay builds no closure per cluster. *)
let drop_squashed st cl =
  for q = 0 to Array.length cl.ready_qs - 1 do
    Vec.filter_in_place st.slot_waiting cl.ready_qs.(q)
  done;
  Vec.filter_in_place st.slot_waiting cl.operand_waiters;
  Vec.filter_in_place st.slot_waiting cl.result_waiters

let rec squash_slaves_rev st (g : group) i =
  if i >= 0 then begin
    squash_copy st (slave_of st g i);
    squash_slaves_rev st g (i - 1)
  end

let replay st =
  let victim = find_replay_victim st in
  if victim >= 0 then begin
    let vseq = (group_at st victim).g_seq in
    if st.observed then st.emit (Ev_replay { cycle = st.cycle; seq = vseq });
    Stats.incr st.ctrs "replays";
    (* A replay that squashes the same victim with no instruction retired
       since the previous replay changed nothing: deterministic
       re-execution will recreate the identical wedge. Escalate to the
       younger-group buffer freeze (see [claim]). *)
    if vseq = st.last_replay_seq && !(st.hot.k_retired) = st.last_replay_retired
    then begin
      st.starving_seq <- vseq;
      Stats.incr st.ctrs "starvation_freezes"
    end;
    st.last_replay_seq <- vseq;
    st.last_replay_retired <- !(st.hot.k_retired);
    (* Squash from youngest down to the victim, inclusive. *)
    while (not (Deque.is_empty st.rob)) && (group_at st (Deque.back st.rob)).g_seq >= vseq do
      let g = group_at st (Deque.pop_back st.rob) in
      (* Slaves were dispatched after the master within the group. *)
      squash_slaves_rev st g (g.g_nslaves - 1);
      if g.g_master >= 0 then squash_copy st (master_of st g);
      g.g_master <- -1;
      g.g_nslaves <- 0;
      Freelist.Slab.free st.group_pool g.g_slot;
      st.squashed_groups <- st.squashed_groups + 1
    done;
    (match st.engine with
    | `Wakeup ->
      for i = 0 to Array.length st.clusters - 1 do
        drop_squashed st st.clusters.(i)
      done
    | `Scan -> ());
    (* Copies squashed above sit in limbo until every structure that may
       still reference them has been walked (the scan engine's queues
       compact in the next issue phase) or drained (no wheel entry is
       keyed past [wheel_horizon]). *)
    st.limbo_flush_at <- imax st.limbo_flush_at (imax (st.cycle + 2) (st.wheel_horizon + 1));
    (* Refetch from the victim. *)
    Deque.clear st.fetch_buffer;
    st.trace_idx <- vseq;
    st.redirect_pending <- false;
    st.fetch_resume <- st.cycle + st.cfg.replay_penalty;
    st.last_fetch_line <- -1;
    (* Drop squashed branches from the training queue, keeping order. *)
    let q = st.pending_train in
    for _ = 1 to Deque.length q / 3 do
      let cycle = Deque.pop_front q in
      let seq = Deque.pop_front q in
      let tok = Deque.pop_front q in
      if seq < vseq then begin
        Deque.push_back q cycle;
        Deque.push_back q seq;
        Deque.push_back q tok
      end
    done;
    st.max_issued_seq <- min st.max_issued_seq (vseq - 1);
    st.stall_cycles <- 0
  end

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Pending entries are (train cycle, seq, token) triples; the due ones
   form a prefix. They are trained newest-first — two due branches can
   share a counter, and every committed result was produced in this
   order — then dropped. *)
let rec count_due st k =
  if 3 * k < Deque.length st.pending_train && Deque.get st.pending_train (3 * k) <= st.cycle
  then count_due st (k + 1)
  else k

let rec train_due st k =
  if k >= 0 then begin
    let seq = Deque.get st.pending_train ((3 * k) + 1) in
    Mcfarling.train st.predictor
      (Deque.get st.pending_train ((3 * k) + 2))
      ~taken:(Flat_trace.branch_taken st.trace seq);
    train_due st (k - 1)
  end

let train_phase st =
  let n = count_due st 0 in
  train_due st (n - 1);
  for _ = 1 to 3 * n do
    ignore (Deque.pop_front st.pending_train)
  done;
  n

(* Cluster state for a given architectural-register assignment: a cluster
   holds physical copies only of the registers assigned to it; the rest of
   the initial mappings go back to the freelist. *)
let build_clusters cfg assignment =
  let n_clusters = Assignment.num_clusters assignment in
  let nq = num_queues cfg.queue_split in
  let make_regfile cl_id =
    let rf = Regfile.create ~num_phys:cfg.phys_per_bank in
    List.iter
      (fun r ->
        if (not (Reg.is_zero r)) && not (Assignment.readable_in assignment r cl_id) then
          Regfile.release rf (Regfile.bank_of_reg r) (Regfile.lookup rf r))
      Reg.all;
    rf
  in
  Array.init n_clusters (fun cl_id ->
      { cl_id;
        rf = make_regfile cl_id;
        fu = Fu.create cfg.issue_limits;
        dqs = Array.init nq (fun _ -> Deque.create ());
        dq_waiting = Array.make nq 0;
        cl_waiting = 0;
        wait_regs =
          Array.init 2 (fun _ -> Array.init cfg.phys_per_bank (fun _ -> Vec.create ()));
        ready_qs = Array.init nq (fun _ -> Vec.create ());
        operand_buf = Transfer_buffer.create ~entries:cfg.operand_buffer_entries;
        result_buf = Transfer_buffer.create ~entries:cfg.result_buffer_entries;
        operand_waiters = Vec.create ();
        result_waiters = Vec.create () })

let init_state ?(engine = `Wakeup) ?profile ?on_event ?on_occupancy ?(occupancy_period = 16)
    cfg =
  validate_config cfg;
  if occupancy_period < 1 then invalid_arg "Machine: occupancy_period < 1";
  let observed, emit =
    match on_event with Some f -> (true, f) | None -> (false, fun (_ : event) -> ())
  in
  let ctrs = Stats.counters_create () in
  let k = Stats.counter ctrs in
  let hot =
    { k_retired = k "retired";
      k_single_distributed = k "single_distributed";
      k_dual_distributed = k "dual_distributed";
      k_slave_issues = k "slave_issues";
      k_scenarios = Array.map k scenario_counters;
      k_stall_rob_full = k "stall_rob_full";
      k_stall_dq_full = k "stall_dq_full";
      k_stall_phys = k "stall_phys";
      k_ooo_issues = k "ooo_issues";
      k_ooo_issue_distance = k "ooo_issue_distance";
      k_issue_active = k "issue_active_cycles";
      k_both_active = k "both_clusters_active_cycles";
      k_fetch_stall = k "fetch_stall_cycles";
      k_icache_fetch_misses = k "icache_fetch_misses";
      k_mispredicted_fetches = k "mispredicted_fetches";
      k_redirects = k "redirects";
      k_squashed_copies = k "squashed_copies" }
  in
  let n_clust = Assignment.num_clusters cfg.assignment in
  { cfg;
    engine;
    n_clust;
    hops = Interconnect.matrix cfg.topology ~clusters:n_clust;
    assignment = cfg.assignment;
    trace = Flat_trace.Builder.(finish (create ~capacity:1 ()));
    clusters = build_clusters cfg cfg.assignment;
    memo_plans = [||];
    memo_scenarios = [||];
    memo_instrs = [||];
    plan_dummy = Instr.make ~op:Op_class.Int_other ~srcs:[] ~dst:None;
    steer_dynamic = Steering.is_dynamic cfg.steering && n_clust > 1;
    steer_train = cfg.steering = Steering.Ineffectual && n_clust > 1;
    steer_rr = 0;
    steer_kind = 0;
    steer_hits = 0;
    steer_fallbacks = 0;
    steer_dead_exiles = 0;
    ineff = Steering.Ineff_table.create ();
    arch_last_pc = Array.make (Reg.num_int + Reg.num_fp) (-1);
    arch_read = Array.make (Reg.num_int + Reg.num_fp) false;
    icache = Cache.create cfg.icache;
    dcache = Cache.create cfg.dcache;
    predictor = Mcfarling.create ~config:cfg.predictor ();
    rob = Deque.create ();
    fetch_buffer = Deque.create ();
    ctrs;
    hot;
    emit;
    observed;
    on_occupancy;
    occupancy_period;
    prof = profile;
    src_wheel = Bucket_queue.create ~capacity:256 ();
    wake_wheel = Bucket_queue.create ~capacity:64 ();
    wheel_horizon = 0;
    wake_scratch = Vec.create ();
    copy_pool = Freelist.Slab.create ~initial:256 ();
    group_pool = Freelist.Slab.create ~initial:128 ();
    copies = Array.make 256 (make_pool_copy (-1));
    groups = Array.make 128 (make_pool_group (-1));
    limbo = Vec.create ();
    limbo_flush_at = 0;
    (* Placeholders; the real callbacks close over the state record and
       are installed right below, once. *)
    src_drain = ignore;
    wake_drain = ignore;
    slot_waiting = (fun _ -> false);
    by_seq = compare;
    scratch_work = 0;
    cycle = 0; trace_idx = 0; fetch_resume = 0; redirect_pending = false;
    last_fetch_line = -1; max_finish = 0; stall_cycles = 0; pending_train = Deque.create ();
    max_issued_seq = -1; head_blocked_seq = -1; head_blocked_age = 0;
    last_replay_seq = -1; last_replay_retired = 0; starving_seq = -1; squashed_groups = 0 }

let init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg =
  let st = init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg in
  st.src_drain <- src_wakeup st;
  st.wake_drain <- wake_collect st;
  st.slot_waiting <- slot_waiting st;
  st.by_seq <- seq_order st;
  st

(* Registers whose cluster placement changes between two assignments: the
   values the reassignment hardware must copy between register files. *)
let moved_registers old_asg new_asg =
  List.filter
    (fun r ->
      (not (Reg.is_zero r))
      && Assignment.clusters_of old_asg r <> Assignment.clusters_of new_asg r)
    Reg.all

(* The count alone, for the emptiness test in [load_phase]: no list is
   materialised. *)
let moved_register_count old_asg new_asg =
  List.fold_left
    (fun n r ->
      if
        (not (Reg.is_zero r))
        && Assignment.clusters_of old_asg r <> Assignment.clusters_of new_asg r
      then n + 1
      else n)
    0 Reg.all

(* Switch to a new phase. The pipeline must be drained (rob empty). The
   reassignment overhead models draining the write buffers and copying
   the moved architectural values across clusters at two registers per
   cycle, plus a fixed resynchronization cost. *)
let load_phase st assignment trace =
  assert (Deque.is_empty st.rob);
  if Assignment.num_clusters assignment <> Assignment.num_clusters st.assignment then
    invalid_arg "Machine.load_phase: cluster count cannot change";
  (* A switch that moves no registers (the same value, or a structurally
     equal one) costs nothing and keeps the clusters' state untouched. *)
  let overhead =
    if assignment == st.assignment then 0
    else
      match moved_register_count st.assignment assignment with
      | 0 -> 0
      | moved ->
        Stats.add st.ctrs "reassigned_registers" moved;
        Stats.incr st.ctrs "reassignments";
        st.assignment <- assignment;
        st.clusters <- build_clusters st.cfg assignment;
        (* Plans depend on the assignment: drop every memo slot. *)
        Array.fill st.memo_instrs 0 (Array.length st.memo_instrs) st.plan_dummy;
        4 + ((moved + 1) / 2)
  in
  (* Under the same assignment the memo stays: a slot planned for another
     trace's instruction fails [plan_slot]'s identity check, and a
     [Flat_trace.sub] view (one sampling unit) shares its parent's
     interned instructions, so its slots still hit. *)
  st.trace <- trace;
  st.trace_idx <- 0;
  (* Whether a value from the outgoing phase gets read can no longer be
     observed; drop the per-register training state (the ineffectuality
     table itself persists, like the branch predictor). *)
  Array.fill st.arch_last_pc 0 (Array.length st.arch_last_pc) (-1);
  Array.fill st.arch_read 0 (Array.length st.arch_read) false;
  Deque.clear st.fetch_buffer;
  st.redirect_pending <- false;
  st.fetch_resume <- st.cycle + overhead;
  st.last_fetch_line <- -1;
  Deque.clear st.pending_train;
  st.max_issued_seq <- -1;
  st.stall_cycles <- 0;
  (* Seqs are positions in the incoming trace: stale starvation tracking
     from the previous phase must not freeze the new one. *)
  st.head_blocked_seq <- -1;
  st.head_blocked_age <- 0;
  st.last_replay_seq <- -1;
  st.last_replay_retired <- !(st.hot.k_retired);
  st.starving_seq <- -1

(* The thesis's starvation rule: young slaves can keep recycling the
   transfer-buffer entries while the oldest instruction starves behind a
   full buffer. When the head of the window has been buffer-blocked for
   long enough - even though the machine as a whole is making progress -
   an instruction-replay exception frees the entries. *)
let head_starvation_check st =
  let blocked_head =
    if Deque.is_empty st.rob then -1
    else
      let g = group_at st (Deque.front st.rob) in
      if group_buffer_blocked st g then g.g_seq else -1
  in
  if blocked_head < 0 then begin
    st.head_blocked_seq <- -1;
    st.head_blocked_age <- 0
  end
  else if blocked_head = st.head_blocked_seq then
    st.head_blocked_age <- st.head_blocked_age + 1
  else begin
    st.head_blocked_seq <- blocked_head;
    st.head_blocked_age <- 1
  end;
  if st.head_blocked_age >= 8 * st.cfg.replay_threshold then begin
    Stats.incr st.ctrs "head_starvation_replays";
    replay st;
    st.head_blocked_seq <- -1;
    st.head_blocked_age <- 0
  end

(* Occupancy snapshot for the sampling sink: ROB entries, waiting
   dispatch-queue entries and in-use transfer-buffer entries per cluster.
   Only built when a sink is attached, so unobserved runs allocate
   nothing here. *)
(* Snapshots rescan the queues and cross-check the running [cl_waiting]
   totals the dispatch-steering hot path trusts. *)
let cluster_waiting cl =
  let scan = total_waiting cl in
  assert (scan = cl.cl_waiting);
  scan

(* The steering argmin the dispatch hot path computes from the running
   totals must match one recomputed from a full queue rescan. *)
let steering_cross_check st =
  let n = Array.length st.clusters in
  if n > 1 then begin
    let rec rescan_argmin i best best_w =
      if i >= n then best
      else begin
        let w = total_waiting st.clusters.(i) in
        if w < best_w then rescan_argmin (i + 1) i w else rescan_argmin (i + 1) best best_w
      end
    in
    let fast = steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting in
    assert (fast = rescan_argmin 1 0 (total_waiting st.clusters.(0)))
  end

let rec receives_in st (g : group) k i =
  i < g.g_nslaves
  &&
  let s = slave_of st g i in
  (s.c_receives_result && s.c_cluster = k) || receives_in st g k (i + 1)

(* Every copy parked on a transfer buffer waits for that one event, sits
   on no other list, and at the next cycle [blocker] names the operand
   buffer whose list holds it or, for a master, some result buffer: an
   earlier receiving buffer than the one it parked on can fill after it
   parks, so its list's buffer need only be a full receiving one. *)
let parked_cross_check st =
  let count_in v (c : copy) =
    let k = ref 0 in
    for i = 0 to Vec.length v - 1 do
      if Vec.get v i = c.c_slot then incr k
    done;
    !k
  in
  let lists_holding c =
    Array.fold_left
      (fun k cl ->
        Array.fold_left (fun k rq -> k + count_in rq c) k cl.ready_qs
        + count_in cl.operand_waiters c + count_in cl.result_waiters c)
      0 st.clusters
  in
  let next = st.cycle + 1 in
  let parked c = c.c_state = C_waiting && c.c_pending = 1 && lists_holding c = 1 in
  Array.iter
    (fun cl ->
      for i = 0 to Vec.length cl.operand_waiters - 1 do
        let c = copy_at st (Vec.get cl.operand_waiters i) in
        assert (parked c && blocker st c ~cycle:next = b_operand_buf + cl.cl_id)
      done;
      for i = 0 to Vec.length cl.result_waiters - 1 do
        let c = copy_at st (Vec.get cl.result_waiters i) in
        assert (parked c && blocker st c ~cycle:next land lnot 7 = b_result_buf);
        assert (receives_in st (group_of st c) cl.cl_id 0);
        assert (not (has_room cl.result_buf ~n:1 ~cycle:next))
      done)
    st.clusters

(* Every operand and result buffer's running-count room equals an
   entry-by-entry scan at [cycle] and at [cycle + 1], the two cycles
   [blocker] asks about, and its running in-use count matches the
   entries in use, within capacity. *)
let buffer_cross_check st =
  let check buf =
    for cycle = st.cycle to st.cycle + 1 do
      assert (Transfer_buffer.available buf ~cycle = Transfer_buffer.available_by_scan buf ~cycle)
    done;
    let in_use = buf.Transfer_buffer.in_use in
    let entries = Transfer_buffer.entries buf in
    assert (in_use = entries - Transfer_buffer.available_by_scan buf ~cycle:max_int);
    assert (0 <= in_use && in_use <= entries)
  in
  Array.iter
    (fun cl ->
      check cl.operand_buf;
      check cl.result_buf)
    st.clusters

(* A stale slot silently reads whatever record now lives there, so every
   slot a structure holds must be in use in its pool: the dispatch
   queues', ready lists', wait lists' and buffer waiter lists' copies,
   the ROB's groups with their masters and slaves, and every wheel
   entry. A squashed copy stays in use in limbo until its flush. The
   pools then hold exactly the in-flight records: the ROB's groups, and
   their copies plus limbo's. *)
let slot_cross_check st =
  let copy_live s = Freelist.Slab.in_use st.copy_pool s in
  let all_live v =
    for i = 0 to Vec.length v - 1 do
      assert (copy_live (Vec.get v i))
    done
  in
  Array.iter
    (fun cl ->
      Array.iter (fun dq -> Deque.iter (fun s -> assert (copy_live s)) dq) cl.dqs;
      Array.iter all_live cl.ready_qs;
      Array.iter (Array.iter all_live) cl.wait_regs;
      all_live cl.operand_waiters;
      all_live cl.result_waiters)
    st.clusters;
  let rob_copies = ref 0 in
  Deque.iter
    (fun gs ->
      assert (Freelist.Slab.in_use st.group_pool gs);
      let g = group_at st gs in
      assert (copy_live g.g_master);
      for i = 0 to g.g_nslaves - 1 do
        assert (copy_live g.g_slaves.(i))
      done;
      rob_copies := !rob_copies + 1 + g.g_nslaves)
    st.rob;
  let stale s = not (copy_live s) in
  assert (not (Bucket_queue.exists st.src_wheel stale || Bucket_queue.exists st.wake_wheel stale));
  all_live st.limbo;
  assert (Freelist.Slab.live st.copy_pool = !rob_copies + Vec.length st.limbo);
  assert (Freelist.Slab.live st.group_pool = Deque.length st.rob)

let occupancy_snapshot st =
  steering_cross_check st;
  parked_cross_check st;
  buffer_cross_check st;
  slot_cross_check st;
  let in_use buf = Transfer_buffer.entries buf - Transfer_buffer.available buf ~cycle:st.cycle in
  { oc_cycle = st.cycle;
    oc_rob = Deque.length st.rob;
    oc_dispatch_queues = Array.map cluster_waiting st.clusters;
    oc_operand_buffers = Array.map (fun cl -> in_use cl.operand_buf) st.clusters;
    oc_result_buffers = Array.map (fun cl -> in_use cl.result_buf) st.clusters }

(* Recycle squashed copies once the flush watermark has passed (every
   stale queue/wheel reference has been compacted or drained by then). *)
let rec flush_limbo_from st i =
  if i < Vec.length st.limbo then begin
    Freelist.Slab.free st.copy_pool (Vec.get st.limbo i);
    flush_limbo_from st (i + 1)
  end

let flush_limbo st =
  (* Every wheel entry scheduled before the squashes has drained by the
     watermark, so none may still point at a limbo copy: one that did
     would reach the record after dispatch re-acquires its slot. *)
  let is_squashed s = (copy_at st s).c_state = C_squashed in
  assert (
    not
      (Bucket_queue.exists st.src_wheel is_squashed
      || Bucket_queue.exists st.wake_wheel is_squashed));
  flush_limbo_from st 0;
  Vec.clear st.limbo

(* A call fails once [max_cycles] (default 10,000) cycles pass without a
   retire, counted from its first cycle: the longest gap between retires
   in any run results.json records is 722 cycles, and a wedged machine
   stops retiring for good, so it fails within seconds of wedging. *)
let run_loop ?(on_cycle = fun () -> ()) ?(max_cycles = 10_000) st =
  let last_retire = ref st.cycle in
  let finished () =
    st.trace_idx >= Flat_trace.length st.trace
    && Deque.is_empty st.fetch_buffer
    && Deque.is_empty st.rob
  in
  (* When profiling, bracket each phase with [Gc.minor_words] so the
     allocation summary names the allocating stage. [phase_alloc] takes
     top-level functions only, so the profiled loop itself stays
     allocation-free apart from the boxed floats [Gc.minor_words]
     returns. (Hoisted out of the cycle loop: a per-iteration closure
     would itself show up in every stage's numbers.) *)
  let phase_alloc stage f =
    match st.prof with
    | None -> f st
    | Some p ->
      let m0 = Gc.minor_words () in
      let r = f st in
      Profile_counters.add_alloc p stage ~words:(Gc.minor_words () -. m0);
      r
  in
  while not (finished ()) do
    if st.cycle - !last_retire > max_cycles then
      failwith
        (Printf.sprintf
           "Machine: cycle limit exceeded (model bug): %d cycles without a retire (max_cycles \
            %d), %d instructions retired, trace position %d of %d, %d groups in flight"
           (st.cycle - !last_retire) max_cycles (Stats.get st.ctrs "retired") st.trace_idx
           (Flat_trace.length st.trace) (Deque.length st.rob));
    if Vec.length st.limbo > 0 && st.cycle >= st.limbo_flush_at then flush_limbo st;
    let woke = phase_alloc stage_wake wake_phase in
    let retired = phase_alloc stage_retire retire_phase in
    if retired > 0 then last_retire := st.cycle;
    let trained = phase_alloc stage_train train_phase in
    let issued = phase_alloc stage_issue issue_phase in
    let dispatched = phase_alloc stage_dispatch dispatch_phase in
    let fetched = phase_alloc stage_fetch fetch_phase in
    (match st.prof with
    | Some p ->
      Profile_counters.note_cycle p;
      Profile_counters.add p stage_retire ~work:retired;
      Profile_counters.add p stage_train ~work:trained;
      Profile_counters.add p stage_dispatch ~work:dispatched;
      Profile_counters.add p stage_fetch ~work:fetched
    | None -> ());
    let in_flight_exec = st.max_finish > st.cycle in
    let progress =
      retired > 0 || issued > 0 || dispatched > 0 || woke > 0 || fetched > 0 || in_flight_exec
    in
    if (not progress) && not (Deque.is_empty st.rob) then begin
      st.stall_cycles <- st.stall_cycles + 1;
      if st.stall_cycles >= st.cfg.replay_threshold then replay st
    end
    else st.stall_cycles <- 0;
    head_starvation_check st;
    (match st.on_occupancy with
    | Some f when st.cycle mod st.occupancy_period = 0 -> f (occupancy_snapshot st)
    | Some _ | None -> ());
    on_cycle ();
    st.cycle <- st.cycle + 1
  done

let finish_result st =
  let cycles = st.cycle in
  let retired = Stats.get st.ctrs "retired" in
  Array.iteri
    (fun i cl ->
      Stats.add st.ctrs (Printf.sprintf "issued_c%d" i) (Fu.total_issued cl.fu);
      Stats.add st.ctrs
        (Printf.sprintf "operand_buf_hw_c%d" i)
        (Transfer_buffer.high_water cl.operand_buf);
      Stats.add st.ctrs
        (Printf.sprintf "result_buf_hw_c%d" i)
        (Transfer_buffer.high_water cl.result_buf))
    st.clusters;
  Stats.add st.ctrs "branch_predictions" (Mcfarling.predictions st.predictor);
  Stats.add st.ctrs "branch_mispredictions" (Mcfarling.mispredictions st.predictor);
  Stats.add st.ctrs "dcache_accesses" (Cache.accesses st.dcache);
  Stats.add st.ctrs "dcache_misses"
    (Cache.primary_misses st.dcache + Cache.secondary_misses st.dcache);
  Stats.add st.ctrs "icache_accesses" (Cache.accesses st.icache);
  Stats.add st.ctrs "icache_misses"
    (Cache.primary_misses st.icache + Cache.secondary_misses st.icache);
  (* Steering statistics exist only under a dynamic policy, so a [Static]
     machine's counter list — and every golden diffed against it — is
     exactly the pre-steering one. *)
  if Steering.is_dynamic st.cfg.steering then begin
    Stats.add st.ctrs "steer_hits" st.steer_hits;
    Stats.add st.ctrs "steer_fallbacks" st.steer_fallbacks;
    Stats.add st.ctrs "steer_dead_exiles" st.steer_dead_exiles;
    Stats.add st.ctrs "ineff_trainings" (Steering.Ineff_table.trainings st.ineff);
    Stats.add st.ctrs "ineff_dead_trainings" (Steering.Ineff_table.dead_trainings st.ineff)
  end;
  (* Added only once nonzero, so the counter exists only if a replay
     squashed something, as when replays bumped it one group at a time. *)
  if st.squashed_groups > 0 then Stats.add st.ctrs "squashed_groups" st.squashed_groups;
  Stats.add st.ctrs "cycles" cycles;
  let counter_lookup = Stats.lookup_of_counters st.ctrs in
  { cycles;
    retired;
    ipc = Stats.ratio retired cycles;
    single_distributed = Stats.get st.ctrs "single_distributed";
    dual_distributed = Stats.get st.ctrs "dual_distributed";
    replays = Stats.get st.ctrs "replays";
    branch_accuracy = Mcfarling.accuracy st.predictor;
    icache_miss_rate = Cache.miss_rate st.icache;
    dcache_miss_rate = Cache.miss_rate st.dcache;
    counters = Stats.lookup_to_alist counter_lookup;
    counter_lookup }

let run_phased_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg
    phases =
  let st = init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg in
  List.iter
    (fun (assignment, trace) ->
      load_phase st assignment trace;
      run_loop st ?max_cycles)
    phases;
  finish_result st

let run_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg trace =
  run_phased_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg
    [ (cfg.assignment, trace) ]

(* ------------------------------------------------------------------ *)
(* Resumable-state API: functional warming and detailed intervals      *)
(* ------------------------------------------------------------------ *)

(* Functional warming (SMARTS-style): advance the long-history
   microarchitectural state - i-cache, d-cache, branch predictor - over
   skipped instructions at one cycle per instruction, without modeling
   the pipeline. The i-cache is touched at line granularity exactly as
   fetch would, and conditional branches run the full
   predict/note/train sequence (training is immediate; the detailed
   model's dispatch-to-execute training lag only matters over the
   handful of in-flight branches, which the detailed warmup prefix of
   the next interval re-establishes). *)
let warm_flat st trace ~lo ~hi =
  if lo < 0 || hi > Flat_trace.length trace || lo > hi then
    invalid_arg "Machine.warm_flat: bad interval";
  for i = lo to hi - 1 do
    st.cycle <- st.cycle + 1;
    let addr = Flat_trace.pc trace i * 4 in
    let line = addr / st.cfg.icache.Cache.line_bytes in
    if line <> st.last_fetch_line then begin
      ignore (Cache.access st.icache ~cycle:st.cycle ~addr ~write:false);
      st.last_fetch_line <- line
    end;
    if Flat_trace.is_memory trace i then
      ignore
        (Cache.access st.dcache ~cycle:st.cycle ~addr:(Flat_trace.mem_addr trace i)
           ~write:(Flat_trace.is_store trace i));
    if Flat_trace.is_cond_branch trace i then begin
      let taken = Flat_trace.branch_taken trace i in
      let tok = Mcfarling.predict st.predictor ~pc:(Flat_trace.pc trace i) in
      Mcfarling.note_outcome st.predictor ~taken;
      Mcfarling.train st.predictor tok ~taken
    end
  done;
  Stats.add st.ctrs "warmed_instructions" (hi - lo)

type interval = { iv_warmup_cycles : int; iv_cycles : int; iv_retired : int }

let run_interval_flat ?max_cycles st trace ~lo ~hi ~measure_from =
  if lo < 0 || hi > Flat_trace.length trace || lo >= hi then
    invalid_arg "Machine.run_interval_flat: bad interval";
  if measure_from < lo || measure_from >= hi then
    invalid_arg "Machine.run_interval_flat: measure_from outside [lo, hi)";
  (* The detailed model requires seq = trace position (replay refetches by
     position); a flat sub-trace re-bases positions at 0 for free. *)
  let sub = Flat_trace.sub trace ~pos:lo ~len:(hi - lo) in
  load_phase st st.assignment sub;
  let start = st.cycle in
  let retired = st.hot.k_retired in
  let retired0 = !retired in
  let threshold = measure_from - lo in
  let boundary = ref start in
  let seen = ref (threshold <= 0) in
  run_loop st ?max_cycles
    ~on_cycle:(fun () ->
      if (not !seen) && !retired - retired0 >= threshold then begin
        seen := true;
        boundary := st.cycle + 1
      end);
  Stats.incr st.ctrs "detailed_intervals";
  { iv_warmup_cycles = !boundary - start;
    iv_cycles = st.cycle - !boundary;
    iv_retired = hi - measure_from }

let state_result st = finish_result st

(* Test hook: (copy live, copy built, group live, group built). Live
   counts include limbo residents not yet flushed back to the pool. *)
let pool_stats st =
  ( Freelist.Slab.live st.copy_pool,
    Freelist.Slab.built st.copy_pool,
    Freelist.Slab.live st.group_pool,
    Freelist.Slab.built st.group_pool )
