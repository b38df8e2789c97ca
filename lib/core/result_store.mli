(** Content-addressed store of per-unit sweep results — the one
    per-unit store: the batch CLI's [--result-cache], the [mcsim serve]
    daemon and every checkpoint directory keep their units here.

    Every entry carries its own identity — the {!Mcsim_obs.Manifest} of
    the run that produced it plus a unit-key string — and is stored
    under the MD5 digest of that identity, so one directory serves every
    sweep anywhere. A unit is a pure function of its identity, so a hit
    anywhere is a correct answer everywhere. A checkpoint is a store
    whose units all carry its sweep's manifest, plus a [sweep.json]
    identity record and a [command.json] invocation record.

    Entries are {!Mcsim_obs.Metrics} unit snapshots
    ([schema_version]/[kind = "unit"]/[manifest]/[data] with
    [data.unit_key]). Writes are atomic (a per-writer temp file renamed
    into place, so concurrent writers of one identity never collide),
    reads verify the stored identity against the requested one (a digest
    collision or a file copied between stores reads as a miss, never as
    the wrong result), and anything unreadable or corrupt decodes as a
    miss and is simply recomputed and overwritten. A [t] is domain-safe:
    lookups and writes serialize on an internal mutex. *)

type t

val open_ : dir:string -> t
(** Create [dir] (and parents) if needed. *)

val dir : t -> string

val identity : manifest:Mcsim_obs.Manifest.t -> key:string -> string
(** The canonical identity string of a unit: the minified JSON of the
    manifest's identity ({!Mcsim_obs.Manifest.identity_json} — the
    creation timestamp does not participate) paired with [key]. *)

val digest : manifest:Mcsim_obs.Manifest.t -> key:string -> string
(** MD5 hex of {!identity} — the content address; entry files are named
    [res-<digest>.json]. *)

val find : t -> manifest:Mcsim_obs.Manifest.t -> key:string -> Mcsim_obs.Json.t option
(** The [data] object recorded for this identity ([unit_key] included),
    or [None] on a miss. The stored manifest identity and unit key of
    [res-<digest>.json] must equal the requested ones. *)

val record :
  t -> manifest:Mcsim_obs.Manifest.t -> key:string -> (string * Mcsim_obs.Json.t) list -> unit
(** Durably store unit [fields] under this identity (atomic write;
    re-recording overwrites).
    @raise Sys_error when the directory is not writable. *)

(** One stored entry, as listed by {!entries}; [sweep.json] and
    [command.json] are not entries. *)
type entry = {
  e_file : string;  (** basename within the store *)
  e_digest : string;  (** identity digest recomputed from the content; "-" if invalid *)
  e_kind : string;  (** first [/]-segment of the unit key (["table2"], ["run"], ...) *)
  e_benchmark : string;  (** the manifest's benchmark, "-" if unset *)
  e_bytes : int;  (** file size *)
  e_valid : bool;  (** decodes as a unit snapshot with a unit key *)
}

val entries : t -> entry list
(** Every [res-*.json] file, sorted by name. *)

val prune_keep_latest : t -> int -> string list
(** [prune_keep_latest t n] deletes all but the [n] most recently
    modified entry files (ties broken by name; identity records like
    [sweep.json] are never touched) and returns the removed basenames,
    sorted — the knob that bounds on-disk cache growth.
    @raise Invalid_argument when [n < 0]. *)
