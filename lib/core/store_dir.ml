module Json = Mcsim_obs.Json

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    (* A concurrent creator between the check and the mkdir is fine. *)
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (match Json.of_string contents with Ok v -> Some v | Error _ -> None)
  | exception Sys_error _ -> None

(* Rename within one directory is atomic on POSIX. *)
let write_json_atomic path v =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ()) (Domain.self () :> int)
         (Filename.basename path))
  in
  try
    Json.write_file tmp v "\n";
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let prune_keep_latest ~dir ~is_entry n =
  if n < 0 then invalid_arg "prune_keep_latest: n must be >= 0";
  let stamped =
    (match Sys.readdir dir with exception Sys_error _ -> [||] | names -> names)
    |> Array.to_list |> List.filter is_entry
    |> List.map (fun name ->
           let mtime =
             try (Unix.stat (Filename.concat dir name)).Unix.st_mtime
             with Unix.Unix_error _ -> 0.0
           in
           (name, mtime))
  in
  (* Newest first; equal mtimes (a coarse-grained clock) break by name. *)
  let ordered =
    List.sort
      (fun (n1, t1) (n2, t2) -> match compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)
      stamped
  in
  let doomed = List.filteri (fun i _ -> i >= n) ordered |> List.map fst in
  List.iter (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()) doomed;
  List.sort String.compare doomed
