module BA1 = Bigarray.Array1

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t
type int64_array = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

(* [codes] word layout — keep in sync with the .mli and the on-disk
   format described in EXPERIMENTS.md:
     bits 0-2   op class          bit 24  has branch payload
     bits 3-9   src0 field        bit 25  branch conditional
     bits 10-16 src1 field        bit 26  branch taken (dynamic)
     bits 17-23 dst field         bit 27  has memory payload
   Register fields are present(1) | bank(1) | index(5). Everything except
   bit 26 is a function of the static instruction at that pc. *)

let op_bits = 0x7
let src0_shift = 3
let src1_shift = 10
let dst_shift = 17
let reg_present = 0x40
let reg_fp = 0x20
let reg_idx = 0x1f
let bit_branch = 1 lsl 24
let bit_cond = 1 lsl 25
let bit_taken = 1 lsl 26
let bit_mem = 1 lsl 27
let static_mask = lnot bit_taken

let encode_op : Op_class.t -> int = function
  | Op_class.Int_multiply -> 0
  | Op_class.Int_other -> 1
  | Op_class.Fp_divide { bits64 = false } -> 2
  | Op_class.Fp_divide { bits64 = true } -> 3
  | Op_class.Fp_other -> 4
  | Op_class.Load -> 5
  | Op_class.Store -> 6
  | Op_class.Control -> 7

let decode_op = function
  | 0 -> Op_class.Int_multiply
  | 1 -> Op_class.Int_other
  | 2 -> Op_class.Fp_divide { bits64 = false }
  | 3 -> Op_class.Fp_divide { bits64 = true }
  | 4 -> Op_class.Fp_other
  | 5 -> Op_class.Load
  | 6 -> Op_class.Store
  | 7 -> Op_class.Control
  | _ -> assert false

let encode_reg = function
  | None -> 0
  | Some r ->
    reg_present
    lor (if Reg.is_fp r then reg_fp else 0)
    lor (Reg.index r land reg_idx)

let decode_reg field =
  if field land reg_present = 0 then None
  else
    let idx = field land reg_idx in
    Some (if field land reg_fp <> 0 then Reg.fp_reg idx else Reg.int_reg idx)

let encode_instr (i : Instr.t) =
  let src0, src1 =
    match i.Instr.srcs with
    | [] -> (None, None)
    | [ a ] -> (Some a, None)
    | [ a; b ] -> (Some a, Some b)
    | _ -> invalid_arg "Flat_trace: more than two sources"
  in
  encode_op i.Instr.op
  lor (encode_reg src0 lsl src0_shift)
  lor (encode_reg src1 lsl src1_shift)
  lor (encode_reg i.Instr.dst lsl dst_shift)

let decode_instr code =
  let srcs =
    Option.to_list (decode_reg ((code lsr src0_shift) land 0x7f))
    @ Option.to_list (decode_reg ((code lsr src1_shift) land 0x7f))
  in
  Instr.make ~op:(decode_op (code land op_bits)) ~srcs
    ~dst:(decode_reg ((code lsr dst_shift) land 0x7f))

(* One interned static instruction per pc, shared between a trace and all
   its {!sub} views. Populated eagerly at construction — one pass over the
   arrays, first occurrence of each pc wins — so readers never write and a
   trace can be decoded from several domains at once (Experiment's sweeps
   simulate one trace on many domains). [tcodes.(pc)] holds the
   static-masked code the cached record was decoded from, so a hand-built
   trace that reuses a pc for a different instruction falls back to a
   fresh decode instead of lying. *)
type intern = {
  tcodes : int array;
  tinstrs : Instr.t option array;
}

type t = {
  pcs : int32_array;
  codes : int32_array;
  aux : int64_array;
  table : intern;
}

let length t = BA1.dim t.pcs
let pc t i = Int32.to_int (BA1.unsafe_get t.pcs i)
let code t i = Int32.to_int (BA1.unsafe_get t.codes i)
let opcode t i = code t i land op_bits
let is_load t i = opcode t i = 5
let is_store t i = opcode t i = 6
let is_memory t i = match opcode t i with 5 | 6 -> true | _ -> false
let has_branch t i = code t i land bit_branch <> 0
let is_cond_branch t i = code t i land bit_cond <> 0
let branch_taken t i = code t i land bit_taken <> 0
let branch_target t i = Int64.to_int (BA1.unsafe_get t.aux i)
let mem_addr t i = Int64.to_int (BA1.unsafe_get t.aux i)

let intern_of_arrays (pcs : int32_array) (codes : int32_array) =
  let n = BA1.dim pcs in
  let max_pc = ref (-1) in
  for i = 0 to n - 1 do
    let pc = Int32.to_int (BA1.unsafe_get pcs i) in
    if pc > !max_pc then max_pc := pc
  done;
  let tcodes = Array.make (!max_pc + 1) (-1) in
  let tinstrs = Array.make (!max_pc + 1) None in
  for i = 0 to n - 1 do
    let pc = Int32.to_int (BA1.unsafe_get pcs i) in
    if tcodes.(pc) < 0 then begin
      let static = Int32.to_int (BA1.unsafe_get codes i) land static_mask in
      tcodes.(pc) <- static;
      tinstrs.(pc) <- Some (decode_instr static)
    end
  done;
  { tcodes; tinstrs }

let instr t i =
  let pc = pc t i in
  let static = code t i land static_mask in
  let tb = t.table in
  if pc < Array.length tb.tcodes && tb.tcodes.(pc) = static then
    match tb.tinstrs.(pc) with Some si -> si | None -> assert false
  else decode_instr static

let sub t ~pos ~len =
  {
    pcs = BA1.sub t.pcs pos len;
    codes = BA1.sub t.codes pos len;
    aux = BA1.sub t.aux pos len;
    table = t.table;
  }

module Builder = struct
  type trace = t

  type t = {
    mutable bpcs : int32_array;
    mutable bcodes : int32_array;
    mutable baux : int64_array;
    mutable n : int;
  }

  let alloc32 n = BA1.create Bigarray.int32 Bigarray.c_layout n
  let alloc64 n = BA1.create Bigarray.int64 Bigarray.c_layout n

  let create ?(capacity = 1024) () =
    let capacity = max 1 capacity in
    { bpcs = alloc32 capacity; bcodes = alloc32 capacity; baux = alloc64 capacity; n = 0 }

  let length b = b.n

  let reserve b =
    let cap = BA1.dim b.bpcs in
    if b.n >= cap then begin
      let cap' = 2 * cap in
      let pcs = alloc32 cap' and codes = alloc32 cap' and aux = alloc64 cap' in
      BA1.blit b.bpcs (BA1.sub pcs 0 cap);
      BA1.blit b.bcodes (BA1.sub codes 0 cap);
      BA1.blit b.baux (BA1.sub aux 0 cap);
      b.bpcs <- pcs;
      b.bcodes <- codes;
      b.baux <- aux
    end

  type payload = No_payload | Mem_address | Jump | Cond_branch
  type code = int

  let encode payload (i : Instr.t) =
    (match (Op_class.is_memory i.Instr.op, payload) with
    | true, Mem_address | false, (No_payload | Jump | Cond_branch) -> ()
    | true, _ -> invalid_arg "Flat_trace: memory op without address"
    | false, Mem_address -> invalid_arg "Flat_trace: address on non-memory op");
    (match (i.Instr.op, payload) with
    | Op_class.Control, (Jump | Cond_branch) -> ()
    | Op_class.Control, (No_payload | Mem_address) ->
      invalid_arg "Flat_trace: control op without branch info"
    | _, (Jump | Cond_branch) -> invalid_arg "Flat_trace: branch info on non-control op"
    | _, (No_payload | Mem_address) -> ());
    encode_instr i
    lor
    match payload with
    | No_payload -> 0
    | Mem_address -> bit_mem
    | Jump -> bit_branch
    | Cond_branch -> bit_branch lor bit_cond

  let write b code ~pc ~taken ~aux =
    if taken && code land bit_branch = 0 then invalid_arg "Flat_trace: taken bit on a non-branch";
    if aux <> 0 && code land (bit_branch lor bit_mem) = 0 then
      invalid_arg "Flat_trace: aux on a word without payload";
    reserve b;
    BA1.unsafe_set b.bpcs b.n (Int32.of_int pc);
    BA1.unsafe_set b.bcodes b.n (Int32.of_int (if taken then code lor bit_taken else code));
    BA1.unsafe_set b.baux b.n (Int64.of_int aux);
    b.n <- b.n + 1

  let emit b ~pc ?mem_addr ?branch i =
    match (mem_addr, branch) with
    | None, None -> write b (encode No_payload i) ~pc ~taken:false ~aux:0
    | Some a, None -> write b (encode Mem_address i) ~pc ~taken:false ~aux:a
    | None, Some br ->
      let payload = if br.Instr.conditional then Cond_branch else Jump in
      write b (encode payload i) ~pc ~taken:br.Instr.taken ~aux:br.Instr.target
    | Some _, Some _ -> invalid_arg "Flat_trace: both an address and branch info"

  let finish b : trace =
    let pcs = BA1.sub b.bpcs 0 b.n in
    let codes = BA1.sub b.bcodes 0 b.n in
    let aux = BA1.sub b.baux 0 b.n in
    { pcs; codes; aux; table = intern_of_arrays pcs codes }
end

let unsafe_arrays t = (t.pcs, t.codes, t.aux)

let of_arrays pcs codes aux =
  let n = BA1.dim pcs in
  if BA1.dim codes <> n || BA1.dim aux <> n then
    invalid_arg "Flat_trace.of_arrays: length mismatch";
  { pcs; codes; aux; table = intern_of_arrays pcs codes }
