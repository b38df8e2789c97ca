(** Result export: CSV and Markdown renderings of the experiment
    artifacts, for spreadsheets and notebooks. *)

val csv_escape : string -> string
(** RFC-4180 quoting, only when needed: fields containing a comma, a
    double quote, or a CR/LF are wrapped in double quotes with embedded
    quotes doubled; everything else passes through unchanged. *)

val table2_csv : Table2.row list -> string
(** Header + one row per benchmark: measured and paper numbers, cycle
    counts, replay counts. *)

val table2_markdown : Table2.row list -> string

val table2_json : Table2.row list -> Mcsim_obs.Json.t
(** The same columns as {!table2_csv}, one object per benchmark, for the
    [data] section of a {!Mcsim_obs.Metrics} snapshot ([null] paper
    numbers for benchmarks the paper does not report). *)

val ablation_csv : Ablation.sweep -> string

val sampling_csv : Mcsim_sampling.Sampling.t -> string
(** One sampled run, one row per detailed interval: start position,
    warmup/measured cycles, measured instructions, per-interval IPC. *)
