(** Set-associative cache with non-blocking misses.

    Models the paper's memory system (§4.1): 64-Kbyte two-way
    set-associative instruction and data caches; the data cache uses an
    inverted MSHR [Farkas & Jouppi, ISCA'94], so there is {e no limit} on
    the number of in-flight misses; the memory interface below has a
    16-cycle fetch latency and unlimited bandwidth.

    The cache is driven by a cycle-stamped access stream. [access] returns
    the cycle at which the data is available: the access cycle itself for
    a hit, miss-latency later for a primary miss, and the primary miss's
    fill cycle for a secondary (merged) miss to an in-flight line. Lines
    are installed at miss time for LRU purposes; write misses allocate.

    Outstanding fills live in an in-flight table keyed by line, and each
    way also records its resident line's fill cycle while the line's
    table entry may still be there. A tag hit is answered from the way:
    a secondary miss while the fill is pending, else a hit, and the first
    such hit removes the line's entry. The table is read only on a tag
    miss, where an evicted line can still be in flight. So the table's
    contents and its sequence of inserts and removes are those of a
    cache that looks every access up in it first, and the MSHR-limited
    path's choice of the earliest fill, whose ties fall to the table's
    iteration order, is unchanged; when that path drops the entry of a
    resident line, it clears the way's fill too, so the line's next
    access is a hit. *)

type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  miss_latency : int;
  mshrs : int option;
      (** [None] = the paper's inverted MSHR (no limit on in-flight
          misses); [Some n] = a conventional n-entry miss-handling file
          [Farkas & Jouppi, ISCA'94]: a primary miss arriving with all
          entries busy waits for the earliest outstanding fill *)
}

val default_config : config
(** 64 KB, 2-way, 32-byte lines, 16-cycle miss latency, inverted MSHR. *)

val validate_config : config -> unit
(** @raise Invalid_argument unless sizes are positive, powers of two where
    required, and consistent. *)

type t

val create : config -> t
val config : t -> config

val access : t -> cycle:int -> addr:int -> write:bool -> int
(** [access t ~cycle ~addr ~write] returns the ready cycle ([>= cycle]).
    Cycles must be non-decreasing across calls.
    @raise Invalid_argument if [cycle] goes backwards. *)

val probe : t -> addr:int -> bool
(** Would [addr] hit right now (resident or in flight)? No state change. *)

val accesses : t -> int
val hits : t -> int
val primary_misses : t -> int
val secondary_misses : t -> int
(** Merged into an in-flight line — no extra memory traffic. *)

val mshr_stalls : t -> int
(** Primary misses delayed by a full conventional MSHR file (always 0
    with the inverted MSHR). *)

val miss_rate : t -> float
(** (primary + secondary) / accesses; 0 when no accesses. *)

val reset_stats : t -> unit
