(** ASCII pipeline timelines — the textual analogue of the paper's timing
    diagrams (Figures 2–5).

    A timeline is built from a machine's event stream and rendered as one
    row per instruction copy and one column per cycle:

    {v
    seq  copy       0123456789
    #0   single C0  .DI W     R
    #2   master C0  .D  IW    R
    #2   slave  C1  .DIo      R
    v}

    Symbols: [F] fetch, [D] dispatch, [I] issue, [o] operand written to
    the other cluster's operand buffer, [r] result written to the other
    cluster's result buffer, [s] suspend, [w] wakeup, [W] writeback,
    [R] retire, [X] replay point. *)

type t

val create : unit -> t

val observer : t -> Mcsim_cluster.Machine.event -> unit
(** Feed this as [~on_event] to {!Mcsim_cluster.Machine.run_flat}, or
    replay recorded events through it. *)

val render :
  ?first_seq:int -> ?last_seq:int -> ?max_width:int -> t -> string
(** Rows for instructions in [\[first_seq, last_seq\]] (defaults:
    everything recorded); columns clipped to [max_width] (default 100)
    cycles starting at the earliest event of the selected rows. When the
    selection contains no events the result is ["(no events)\n"].
    @raise Invalid_argument if [max_width <= 0]. *)
