module Flat_trace = Mcsim_isa.Flat_trace
module BA1 = Bigarray.Array1

type t = { dir : string }

let dir t = t.dir

let open_ ~dir =
  Store_dir.mkdir_p dir;
  { dir }

type key = {
  benchmark : string;
  scheduler : string;
  seed : int;
  max_instrs : int;
}

let magic = "MCTRACE1"
let format_version = 3
let header_bytes = 32

let key_string k =
  Printf.sprintf "%s|%s|seed=%d|max=%d|v%d" k.benchmark k.scheduler k.seed k.max_instrs
    format_version

let sanitize key =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c | _ -> '_')
      key
  in
  if String.length mapped <= 60 then mapped else String.sub mapped 0 60

let path t k =
  let key = key_string k in
  let digest = String.sub (Digest.to_hex (Digest.string key)) 0 8 in
  Filename.concat t.dir
    (Printf.sprintf "trace-%s-%s.mctrace" (sanitize (k.benchmark ^ "-" ^ k.scheduler)) digest)

let payload_bytes n = 16 * n

(* FNV-1a over the payload viewed as 64-bit words, through an int-kind
   Bigarray so every read is an unboxed native int — the loop neither
   boxes nor allocates and runs at memory speed, where an MD5 pass over
   the payload would cost more than the mmap'd load it protects.
   Order-sensitive: swapped or flipped words change the sum. The int
   view sees 63 of each word's 64 bits (OCaml ints are 63-bit), so a
   corruption confined to the top bit of a word is the one blind spot —
   truncation, version skew and everything else is caught. *)
let checksum_basis = 0x1403_7907_0462_5a1d
let checksum_prime = 0x100000001b3

let checksum_words (words : (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t) =
  let h = ref checksum_basis in
  for i = 0 to BA1.dim words - 1 do
    h := (!h lxor BA1.unsafe_get words i) * checksum_prime land max_int
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let map_i32 fd ~pos ~len shared =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout shared
       [| len |])

let map_i64 fd ~pos ~len shared =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int64 Bigarray.c_layout shared
       [| len |])

(* The whole 16·n-byte payload as 2·n 64-bit words, for checksumming. *)
let map_words fd ~len shared =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int header_bytes) Bigarray.int Bigarray.c_layout
       shared [| len |])

let save t k trace =
  let n = Flat_trace.length trace in
  let pcs, codes, aux = Flat_trace.unsafe_arrays trace in
  let key = key_string k in
  let key_len = String.length key in
  let final = path t k in
  let tmp =
    Printf.sprintf "%s.tmp-%d-%d" final (Unix.getpid ()) ((Domain.self () :> int))
  in
  let total = header_bytes + payload_bytes n + key_len in
  let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  try
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd total;
        let hdr = Bytes.make header_bytes '\000' in
        Bytes.blit_string magic 0 hdr 0 8;
        Bytes.set_int32_ne hdr 8 (Int32.of_int format_version);
        Bytes.set_int32_ne hdr 12 (Int32.of_int n);
        Bytes.set_int32_ne hdr 24 (Int32.of_int key_len);
        ignore (Unix.write fd hdr 0 header_bytes);
        let sum =
          if n = 0 then checksum_basis
          else begin
            (* The payload is blitted straight from the Bigarrays through a
               shared mapping — no per-instruction work, no heap copies —
               then checksummed from the same mapping, exactly as a loader
               will see it. *)
            BA1.blit pcs (map_i32 fd ~pos:header_bytes ~len:n true);
            BA1.blit codes (map_i32 fd ~pos:(header_bytes + (4 * n)) ~len:n true);
            BA1.blit aux (map_i64 fd ~pos:(header_bytes + (8 * n)) ~len:n true);
            checksum_words (map_words fd ~len:(2 * n) true)
          end
        in
        ignore (Unix.lseek fd 16 Unix.SEEK_SET);
        let b = Bytes.create 8 in
        Bytes.set_int64_ne b 0 (Int64.of_int sum);
        ignore (Unix.write fd b 0 8);
        (* Full key as a trailer: the file name only carries a 32-bit
           digest prefix, so loads compare this string and treat a
           digest-prefix collision between two keys as a miss. *)
        ignore (Unix.lseek fd (header_bytes + payload_bytes n) Unix.SEEK_SET);
        ignore (Unix.write_substring fd key 0 key_len));
    Sys.rename tmp final
  with e ->
    (* Nothing made it to [final]; don't leave the temp file behind. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

(* Read exactly [len] bytes at [pos] into a fresh string, or [None] on a
   short or failed read. *)
let read_at fd ~pos ~len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> None
      | r -> go (off + r)
      | exception Unix.Unix_error _ -> None
  in
  match Unix.lseek fd pos Unix.SEEK_SET with
  | exception Unix.Unix_error _ -> None
  | _ -> go 0

(* Open, header-check, verify the trailer key against [expect] (when
   given), map copy-on-write and checksum the payload;
   [Some (f pcs codes aux n)] iff the file is a complete, uncorrupted
   current-version trace for the expected key.  The mappings outlive the
   fd (and, being shared=false, never write back), so [f] may capture
   them. *)
let with_valid ?expect file f =
  match Unix.openfile file [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match read_at fd ~pos:0 ~len:header_bytes with
        | None -> None
        | Some hdr when String.sub hdr 0 8 <> magic -> None
        | Some hdr
          when Int32.to_int (String.get_int32_ne hdr 8) <> format_version -> None
        | Some hdr ->
          let n = Int32.to_int (String.get_int32_ne hdr 12) in
          let key_len = Int32.to_int (String.get_int32_ne hdr 24) in
          if
            n < 0 || key_len < 0
            || (Unix.fstat fd).Unix.st_size
               <> header_bytes + payload_bytes n + key_len
          then None
          else if
            (* The full key stored after the payload must match the key we
               are looking up — the file name's short digest alone could
               collide. *)
            match expect with
            | None -> false
            | Some e ->
              read_at fd ~pos:(header_bytes + payload_bytes n) ~len:key_len
              <> Some e
          then None
          else
            let stored = Int64.to_int (String.get_int64_ne hdr 16) in
            let sum =
              if n = 0 then checksum_basis
              else checksum_words (map_words fd ~len:(2 * n) false)
            in
            if sum <> stored then None
            else if n = 0 then
              Some
                (f
                   (BA1.create Bigarray.int32 Bigarray.c_layout 0)
                   (BA1.create Bigarray.int32 Bigarray.c_layout 0)
                   (BA1.create Bigarray.int64 Bigarray.c_layout 0)
                   0)
            else
              let pcs = map_i32 fd ~pos:header_bytes ~len:n false in
              let codes = map_i32 fd ~pos:(header_bytes + (4 * n)) ~len:n false in
              let aux = map_i64 fd ~pos:(header_bytes + (8 * n)) ~len:n false in
              Some (f pcs codes aux n))

let find t k =
  let file = path t k in
  if not (Sys.file_exists file) then None
  else
    (* Copy-on-write mappings: the pages come from (and stay in) the
       page cache, shared across every process simulating from the same
       store. *)
    with_valid ~expect:(key_string k) file (fun pcs codes aux _n ->
        Flat_trace.of_arrays pcs codes aux)

let load_or_build t k build =
  match find t k with
  | Some trace -> (trace, `Hit)
  | None ->
    let trace = build () in
    (try save t k trace with Sys_error _ | Unix.Unix_error _ -> ());
    (trace, `Miss)

(* ------------------------------------------------------------------ *)
(* Listing                                                             *)
(* ------------------------------------------------------------------ *)

type entry = { e_file : string; e_instrs : int; e_bytes : int; e_valid : bool }

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun name -> Filename.check_suffix name ".mctrace")
    |> List.sort String.compare
    |> List.map (fun name ->
           let file = Filename.concat t.dir name in
           let bytes = try (Unix.stat file).Unix.st_size with Unix.Unix_error _ -> 0 in
           match with_valid file (fun _ _ _ n -> n) with
           | Some n -> { e_file = name; e_instrs = n; e_bytes = bytes; e_valid = true }
           | None -> { e_file = name; e_instrs = 0; e_bytes = bytes; e_valid = false })

let prune_keep_latest t n =
  Store_dir.prune_keep_latest ~dir:t.dir
    ~is_entry:(fun name -> Filename.check_suffix name ".mctrace")
    n
