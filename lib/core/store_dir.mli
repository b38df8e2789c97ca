(** File primitives shared by the on-disk stores ({!Result_store},
    {!Checkpoint}, {!Trace_store}). *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; an existing directory,
    or one a concurrent process creates first, is fine. *)

val read_json : string -> Mcsim_obs.Json.t option
(** The file's JSON value, or [None] when it is missing, unreadable or
    does not parse. *)

val write_json_atomic : string -> Mcsim_obs.Json.t -> unit
(** Write to a temp file in the same directory, then rename: a reader
    sees the old file or the complete new one, never a torn write. The
    temp name carries the pid and domain, so concurrent writers of one
    path (two processes, or two handles in two domains) never share it.
    @raise Sys_error when the directory is not writable. *)

val prune_keep_latest : dir:string -> is_entry:(string -> bool) -> int -> string list
(** Delete all but the [n] most recently modified files of [dir] whose
    basename satisfies [is_entry] (equal mtimes break by name, so the
    survivors are deterministic) and return the removed basenames,
    sorted. A missing [dir] holds nothing to prune.
    @raise Invalid_argument when [n < 0]. *)
