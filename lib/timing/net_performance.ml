module Interconnect = Mcsim_cluster.Interconnect

let speedup_pct ~single_cycles ~dual_cycles =
  100.0 -. (100.0 *. float_of_int dual_cycles /. float_of_int (max 1 single_cycles))

let required_clock_reduction_pct slowdown_pct =
  if slowdown_pct <= -100.0 then invalid_arg "required_clock_reduction_pct";
  100.0 -. (100.0 /. (1.0 +. (slowdown_pct /. 100.0)))

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
let interconnect_delay ~clusters ~topology feature =
  if clusters <= 1 then 0.0
  else
    let span =
      match (topology : Interconnect.topology) with
      | Point_to_point -> float_of_int (clusters - 1)
      | Ring -> 1.0
      | Crossbar -> float_of_int clusters /. 2.0
    in
    Palacharla.wire_scale feature *. 100.0 *. span

let cluster_cycle_time ~clusters ~topology feature =
  Float.max
    (Palacharla.cycle_time (Palacharla.per_cluster_config ~clusters feature))
    (interconnect_delay ~clusters ~topology feature)

let clock_ratio ~clusters ~topology feature =
  Palacharla.cycle_time (Palacharla.single_cluster_config feature)
  /. cluster_cycle_time ~clusters ~topology feature

let net_runtime_ratio_n ~single_cycles ~cycles ~clusters ~topology ~feature =
  let t_single = Palacharla.cycle_time (Palacharla.single_cluster_config feature) in
  let t_n = cluster_cycle_time ~clusters ~topology feature in
  float_of_int cycles *. t_n /. (float_of_int (max 1 single_cycles) *. t_single)

let net_speedup_pct_n ~single_cycles ~cycles ~clusters ~topology ~feature =
  100.0 -. (100.0 *. net_runtime_ratio_n ~single_cycles ~cycles ~clusters ~topology ~feature)
