module Machine = Mcsim_cluster.Machine
module Interconnect = Mcsim_cluster.Interconnect

let speedup_pct ~single_cycles ~dual_cycles =
  100.0 -. (100.0 *. float_of_int dual_cycles /. float_of_int (max 1 single_cycles))

let required_clock_reduction_pct slowdown_pct =
  if slowdown_pct <= -100.0 then invalid_arg "required_clock_reduction_pct";
  100.0 -. (100.0 /. (1.0 +. (slowdown_pct /. 100.0)))

let palacharla_config (c : Machine.config) feature =
  { Palacharla.issue_width = c.issue_limits.total; window_size = c.dq_entries; feature }

(* The longest single interconnect hop must fit in a cycle (transfers are
   pipelined, so distance is paid in hop *latency*, not clock). The wire
   span one hop covers grows with the topology's longest link, measured
   in cluster pitches at 100 ps each (0.35 µm), wire-scaled like the
   bypass network:
   - point-to-point: dedicated links to every other cluster, the longest
     spanning the floorplan — [clusters - 1] pitches. This is what stops
     pairwise wiring from scaling.
   - ring: neighbor links only, one pitch, independent of cluster count.
   - crossbar: a shared switch reaching half the floorplan. *)
let interconnect_delay (c : Machine.config) feature =
  let clusters = Mcsim_cluster.Assignment.num_clusters c.assignment in
  if clusters <= 1 then 0.0
  else
    let span =
      match c.topology with
      | Interconnect.Point_to_point -> float_of_int (clusters - 1)
      | Ring -> 1.0
      | Crossbar -> float_of_int clusters /. 2.0
    in
    Palacharla.wire_scale feature *. 100.0 *. span

let cycle_time c feature =
  Float.max
    (Palacharla.cycle_time (palacharla_config c feature))
    (interconnect_delay c feature)

(* The baseline every ratio divides by: the paper's 8-issue monolith. *)
let single_cycle_time feature = cycle_time (Machine.single_cluster ()) feature

let clock_ratio c feature = single_cycle_time feature /. cycle_time c feature

let net_runtime_ratio ~single_cycles ~cycles ~feature c =
  let t_single = single_cycle_time feature in
  let t_n = cycle_time c feature in
  float_of_int cycles *. t_n /. (float_of_int (max 1 single_cycles) *. t_single)

let net_speedup_pct ~single_cycles ~cycles ~feature c =
  100.0 -. (100.0 *. net_runtime_ratio ~single_cycles ~cycles ~feature c)
