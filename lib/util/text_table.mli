(** Plain-text table rendering for experiment reports.

    Columns are sized to the widest cell; the first row is treated as a
    header and separated by a rule. Alignment is per column. *)

type align = Left | Right

val render : ?aligns:align array -> string list list -> string
(** [render rows] renders [rows] (header first). [aligns] defaults to
    left-aligned; missing entries default to [Left]. Rows may have unequal
    lengths; short rows are padded with empty cells. Returns a string
    ending in a newline. *)
