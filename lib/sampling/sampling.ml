module Machine = Mcsim_cluster.Machine
module Flat_trace = Mcsim_isa.Flat_trace
module Stats = Mcsim_util.Stats
module Rng = Mcsim_util.Rng

type policy = { interval : int; warmup : int; detail : int; seed : int }

let default_policy = { interval = 25_000; warmup = 2_000; detail = 2_000; seed = 1 }

let validate_policy p =
  if p.interval < 1 then invalid_arg "Sampling: interval < 1";
  if p.warmup < 0 then invalid_arg "Sampling: warmup < 0";
  if p.detail < 1 then invalid_arg "Sampling: detail < 1";
  if p.warmup + p.detail > p.interval then
    invalid_arg "Sampling: warmup + detail must not exceed interval"

let policy_to_string p = Printf.sprintf "%d:%d:%d" p.interval p.warmup p.detail

let policy_of_string ?(seed = 1) s =
  let field what v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error (Printf.sprintf "%s must be a non-negative integer, got %S" what v)
  in
  match String.split_on_char ':' s with
  | [ i; w; d ] -> (
    match (field "interval" i, field "warmup" w, field "detail" d) with
    | Ok interval, Ok warmup, Ok detail ->
      let p = { interval; warmup; detail; seed } in
      (try
         validate_policy p;
         Ok p
       with Invalid_argument m -> Error m)
    | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e) -> e)
  | _ ->
    Error
      (Printf.sprintf "expected INTERVAL:WARMUP:DETAIL (e.g. %s), got %S"
         (policy_to_string default_policy) s)

type interval_stat = {
  index : int;
  start : int;
  warmup_cycles : int;
  detail_cycles : int;
  detail_instrs : int;
  ipc : float;
}

type t = {
  policy : policy;
  trace_instrs : int;
  intervals : interval_stat list;
  mean_ipc : float;
  ci_halfwidth : float;
  detailed_instrs : int;
  warmed_instrs : int;
  est_cycles : int;
  machine : Machine.result;
}

let ci_rel r = if r.mean_ipc = 0.0 then 0.0 else r.ci_halfwidth /. r.mean_ipc
let detailed_fraction r = Stats.ratio r.detailed_instrs r.trace_instrs

let run_flat ?max_cycles ?engine ?(policy = default_policy) cfg trace =
  validate_policy policy;
  let n = Flat_trace.length trace in
  let unit = policy.warmup + policy.detail in
  (* Systematic sampling: one seeded offset places the first unit; every
     later unit starts [interval] instructions after the previous one. *)
  let max_offset = policy.interval - unit in
  let offset =
    if max_offset = 0 then 0 else Rng.int (Rng.create policy.seed) (max_offset + 1)
  in
  let num_units =
    if n < offset + unit then 0 else 1 + ((n - offset - unit) / policy.interval)
  in
  if num_units < 2 then
    invalid_arg
      (Printf.sprintf
         "Sampling: trace of %d instructions yields %d complete sampling unit(s) \
          under policy %s (offset %d); need at least 2 for a confidence interval"
         n num_units (policy_to_string policy) offset);
  let st = Machine.init_state ?engine cfg in
  let stats = ref [] in
  let pos = ref 0 in
  for k = 0 to num_units - 1 do
    let start = offset + (k * policy.interval) in
    Machine.warm_flat st trace ~lo:!pos ~hi:start;
    let iv =
      Machine.run_interval_flat ?max_cycles st trace ~lo:start ~hi:(start + unit)
        ~measure_from:(start + policy.warmup)
    in
    let detail_cycles = max 1 iv.Machine.iv_cycles in
    stats :=
      { index = k;
        start;
        warmup_cycles = iv.Machine.iv_warmup_cycles;
        detail_cycles;
        detail_instrs = iv.Machine.iv_retired;
        ipc = Stats.ratio iv.Machine.iv_retired detail_cycles }
      :: !stats;
    pos := start + unit
  done;
  Machine.warm_flat st trace ~lo:!pos ~hi:n;
  let intervals = List.rev !stats in
  (* Aggregate per-unit CPI, not IPC: every unit measures the same
     instruction count, so the full-run cycle total extrapolates
     linearly from mean CPI (the instruction-weighted harmonic mean of
     the unit IPCs). Averaging IPC directly would overweight the fast
     units and systematically overestimate. The IPC-space interval comes
     out of the CPI one by the delta method (1/x is locally linear). *)
  let cpis =
    Array.of_list (List.map (fun s -> Stats.ratio s.detail_cycles s.detail_instrs) intervals)
  in
  let mean_cpi, cpi_halfwidth = Stats.confidence_interval ~confidence:0.95 cpis in
  let mean_ipc = if mean_cpi = 0.0 then 0.0 else 1.0 /. mean_cpi in
  { policy;
    trace_instrs = n;
    intervals;
    mean_ipc;
    ci_halfwidth = cpi_halfwidth *. mean_ipc *. mean_ipc;
    detailed_instrs = num_units * unit;
    warmed_instrs = n - (num_units * unit);
    est_cycles = int_of_float (Float.round (float_of_int n *. mean_cpi));
    machine = Machine.state_result st }

let estimate r =
  { r.machine with
    Machine.cycles = r.est_cycles;
    retired = r.trace_instrs;
    ipc = r.mean_ipc }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "sampled simulation: policy %s (seed %d), %d-instruction trace\n"
    (policy_to_string r.policy) r.policy.seed r.trace_instrs;
  Printf.bprintf b
    "  %d units: %d instructions detailed (%.1f%%), %d functionally warmed\n"
    (List.length r.intervals) r.detailed_instrs
    (100.0 *. detailed_fraction r)
    r.warmed_instrs;
  Printf.bprintf b "  IPC %.4f +/- %.4f (95%% CI, +/-%.2f%%), estimated cycles %d\n"
    r.mean_ipc r.ci_halfwidth
    (100.0 *. ci_rel r)
    r.est_cycles;
  Buffer.contents b
