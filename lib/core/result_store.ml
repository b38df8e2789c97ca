module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest

type t = { dir : string; mutex : Mutex.t }

let dir t = t.dir

let open_ ~dir =
  Store_dir.mkdir_p dir;
  { dir; mutex = Mutex.create () }

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

(* The identity is the minified JSON of (manifest identity, unit key).
   Going through JSON rather than ad-hoc string concatenation makes the
   address injective: no two distinct (manifest, key) pairs can collide
   by delimiter games. *)
let identity_of_parts manifest_json key =
  Json.to_string ~minify:true
    (Json.Obj
       [ ("manifest", Manifest.strip_created manifest_json);
         ("unit_key", Json.String key) ])

let identity ~manifest ~key = identity_of_parts (Manifest.to_json manifest) key
let digest ~manifest ~key = Digest.to_hex (Digest.string (identity ~manifest ~key))

let res_basename dg = "res-" ^ dg ^ ".json"

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

(* The stored snapshot's own identity — [None] when the file is not a
   unit snapshot. Re-deriving it from the content (rather than trusting
   the file name) is what makes digest collisions and files copied
   between stores read as misses. *)
let stored_identity j =
  match (Json.member "manifest" j, Option.bind (Json.path [ "data"; "unit_key" ] j) Json.get_string)
  with
  | Some mj, Some key -> Some (identity_of_parts mj key, key)
  | _ -> None

let find t ~manifest ~key =
  let want = identity ~manifest ~key in
  let path = Filename.concat t.dir (res_basename (Digest.to_hex (Digest.string want))) in
  Mutex.protect t.mutex (fun () ->
      match Store_dir.read_json path with
      | Some j when Option.map fst (stored_identity j) = Some want -> Json.member "data" j
      | Some _ | None -> None)

let record t ~manifest ~key fields =
  let snapshot =
    Json.Obj
      [ ("schema_version", Json.Int Manifest.schema_version);
        ("kind", Json.String "unit");
        ("manifest", Manifest.to_json manifest);
        ("data", Json.Obj (("unit_key", Json.String key) :: fields)) ]
  in
  let path = Filename.concat t.dir (res_basename (digest ~manifest ~key)) in
  Mutex.protect t.mutex (fun () -> Store_dir.write_json_atomic path snapshot)

(* ------------------------------------------------------------------ *)
(* Listing and pruning                                                 *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_file : string;
  e_digest : string;
  e_kind : string;
  e_benchmark : string;
  e_bytes : int;
  e_valid : bool;
}

let is_entry_file name =
  String.length name > 4 && String.sub name 0 4 = "res-" && Filename.check_suffix name ".json"

let key_kind key =
  match String.index_opt key '/' with
  | Some i -> String.sub key 0 i
  | None -> key

let entry_files t =
  Sys.readdir t.dir |> Array.to_list |> List.filter is_entry_file
  |> List.sort String.compare

let entries t =
  Mutex.protect t.mutex (fun () ->
      List.map
        (fun name ->
          let path = Filename.concat t.dir name in
          let e_bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
          match Option.bind (Store_dir.read_json path) (fun j ->
                    Option.map (fun id -> (id, j)) (stored_identity j))
          with
          | Some ((id, key), j) ->
            let benchmark =
              match Json.path [ "manifest"; "benchmark" ] j with
              | Some (Json.String b) -> b
              | _ -> "-"
            in
            { e_file = name;
              e_digest = Digest.to_hex (Digest.string id);
              e_kind = key_kind key;
              e_benchmark = benchmark;
              e_bytes;
              e_valid = true }
          | None ->
            { e_file = name;
              e_digest = "-";
              e_kind = "-";
              e_benchmark = "-";
              e_bytes;
              e_valid = false })
        (entry_files t))

let prune_keep_latest t n =
  Mutex.protect t.mutex (fun () ->
      Store_dir.prune_keep_latest ~dir:t.dir ~is_entry:is_entry_file n)
