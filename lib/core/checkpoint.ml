module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest

type t = { store : Result_store.t; manifest : Manifest.t }

let store t = t.store

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let sweep_file dir = Filename.concat dir "sweep.json"

(* The manifest minus its creation timestamp: two opens of the same
   sweep at different times must agree. *)
let identity_manifest = Manifest.identity_json

let sweep_json ~kind ~manifest ~extra =
  Json.Obj
    [ ("schema_version", Json.Int Manifest.schema_version);
      ("kind", Json.String kind);
      ("manifest", Manifest.to_json manifest);
      ("data", Json.Obj [ ("sweep", Json.Obj extra) ]) ]

let identity_of_sweep_json j =
  let kind = Option.bind (Json.member "kind" j) Json.get_string in
  let manifest =
    match Json.member "manifest" j with
    | Some (Json.Obj _ as m) -> Some (Mcsim_obs.Manifest.strip_created m)
    | Some _ | None -> None
  in
  let sweep = Json.path [ "data"; "sweep" ] j in
  match (kind, manifest, sweep) with
  | Some kind, Some manifest, Some sweep -> Some (kind, manifest, sweep)
  | _ -> None

let open_ ~dir ~kind ~manifest ?(extra = []) () =
  let t = { store = Result_store.open_ ~dir; manifest } in
  let path = sweep_file dir in
  (if Sys.file_exists path then begin
     let stale reason =
       failwith
         (Printf.sprintf
            "checkpoint %s was written by a different sweep (%s); use a fresh \
             directory or rerun with the original configuration"
            dir reason)
     in
     match Option.bind (Store_dir.read_json path) identity_of_sweep_json with
     | None -> failwith (Printf.sprintf "checkpoint %s: unreadable or corrupt sweep.json" dir)
     | Some (kind', manifest', sweep') ->
       if kind' <> kind then
         stale (Printf.sprintf "sweep kind %S, expected %S" kind' kind);
       if manifest' <> identity_manifest manifest then stale "manifest mismatch";
       if sweep' <> Json.Obj extra then stale "sweep parameter mismatch"
   end
   else Store_dir.write_json_atomic path (sweep_json ~kind ~manifest ~extra));
  t

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let find t key = Result_store.find t.store ~manifest:t.manifest ~key
let record t ~key fields = Result_store.record t.store ~manifest:t.manifest ~key fields

(* ------------------------------------------------------------------ *)
(* CLI command record                                                  *)
(* ------------------------------------------------------------------ *)

let command_file dir = Filename.concat dir "command.json"

let write_command ~dir fields =
  Store_dir.mkdir_p dir;
  Store_dir.write_json_atomic (command_file dir) (Json.Obj fields)

let read_command ~dir =
  match Store_dir.read_json (command_file dir) with
  | Some (Json.Obj fields) -> fields
  | Some _ -> failwith (Printf.sprintf "checkpoint %s: corrupt command.json" dir)
  | None ->
    failwith
      (Printf.sprintf
         "%s is not a resumable checkpoint directory (missing or unreadable command.json)"
         dir)
