(** Plain-text and CSV table rendering for experiment reports.

    Columns are sized to the widest cell; the first row is treated as a
    header and separated by a rule. Alignment is per column. *)

type align = Left | Right

val render : ?aligns:align array -> string list list -> string
(** [render rows] renders [rows] (header first). [aligns] defaults to
    left-aligned; missing entries default to [Left]. Rows may have unequal
    lengths; short rows are padded with empty cells. Returns a string
    ending in a newline. *)

val csv_escape : string -> string
(** RFC-4180 quoting, only when needed: fields containing a comma, a
    double quote, or a CR/LF are wrapped in double quotes with embedded
    quotes doubled; everything else passes through unchanged. *)

val csv : string list list -> string
(** [csv rows]: one line per row (header first), each cell escaped with
    {!csv_escape}, every line ending in a newline. *)
