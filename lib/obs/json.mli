(** A minimal JSON tree: constructor, serializer and parser.

    The observability layer writes Chrome-trace and metrics files and the
    tests read them back; depending on an external JSON package for that
    would be the only third-party runtime dependency of the whole
    simulator, so this ~200-line subset is kept in-tree instead. It
    covers exactly RFC 8259 with two deliberate restrictions: object keys
    are kept in insertion order (serialization is deterministic), and
    numbers parse as [Int] when they look integral ([-?[0-9]+]) and as
    [Float] otherwise, so a serialize/parse round trip is the identity on
    trees the serializer can produce. *)

type encoded
(** The minified text of a tree, made only by {!encode}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Encoded of encoded
      (** A subtree serialized once by {!encode}: {!to_string} writes its
          text verbatim, so a value sent many times is formatted once.
          {!of_string} never produces it, and the queries below see it
          as an opaque leaf. *)

val to_string : ?minify:bool -> t -> string
(** Serialize. Two-space indentation unless [minify] (default false);
    an [Encoded] leaf is embedded minified either way. Floats print with
    the shortest precision that parses back to the same value (NaN and
    infinities as [null] — JSON has no spelling for them); strings
    escape double quotes, backslashes, control characters and nothing
    else. *)

val encode : t -> t
(** [encode v] is the leaf holding [to_string ~minify:true v]. Putting
    it in place of [v] anywhere in a tree leaves that tree's minified
    text unchanged, and parsing the text gives back the tree with [v]
    in place. *)

val write_file : ?minify:bool -> string -> t -> string -> unit
(** [write_file ?minify path json trailer] writes
    [to_string ?minify json ^ trailer] (pass ["\n"] for a trailing
    newline). *)

val max_depth : int
(** Maximum container nesting {!of_string} accepts (512). The parser
    recurses once per level, so the bound turns hostile deeply-nested
    input — the serve protocol parses untrusted socket bytes — into a
    one-line error instead of a stack overflow. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    Errors are one-line messages with a character offset; input nested
    deeper than {!max_depth} is an error, never a crash. *)

(** {2 Tree queries} — conveniences for tests and validators. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on absent fields and non-objects. *)

val path : string list -> t -> t option
(** Nested {!member}. *)

val to_list : t -> t list
(** The elements of a [List]; [] otherwise. *)

val get_int : t -> int option
(** [Int n] (or integral [Float]); [None] otherwise. *)

val get_string : t -> string option

val get_float : t -> float option
(** [Float f] or [Int n] (the serializer prints integral floats without
    a decimal point, so they reparse as [Int]); [None] otherwise. *)
