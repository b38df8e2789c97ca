(* Tests for Mcsim_timing: the Palacharla delay model and the
   net-performance arithmetic. *)

module P = Mcsim_timing.Palacharla
module Net = Mcsim_timing.Net_performance
module Machine = Mcsim_cluster.Machine

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let single = Machine.single_cluster ()
let dual = Machine.dual_cluster ()

let eight_vs_four_ratio = Net.clock_ratio dual

let anchors_035 () =
  (* The paper quotes 1248 ps (4-issue) and 1484 ps (8-issue) at 0.35 um. *)
  check (Alcotest.float 1.0) "4-issue worst path" 1248.0
    (P.cycle_time (Net.palacharla_config dual P.F0_35));
  check (Alcotest.float 1.0) "8-issue worst path" 1484.0
    (P.cycle_time (Net.palacharla_config single P.F0_35));
  check (Alcotest.float 0.01) "about +18%" 1.19 (eight_vs_four_ratio P.F0_35)

let anchors_018 () =
  check (Alcotest.float 0.01) "about +82%" 1.82 (eight_vs_four_ratio P.F0_18)

let wire_dominates_at_018 () =
  check Alcotest.string "bypass binds the wide machine at 0.18um" "bypass"
    (P.critical_structure (Net.palacharla_config single P.F0_18));
  check Alcotest.string "wakeup+select binds at 0.35um" "wakeup+select"
    (P.critical_structure (Net.palacharla_config single P.F0_35))

let monotone_in_width () =
  List.iter
    (fun feature ->
      let t w = P.cycle_time { P.issue_width = w; window_size = 16 * w; feature } in
      check Alcotest.bool "wider is slower" true (t 2 < t 4 && t 4 < t 8 && t 8 < t 16))
    [ P.F0_35; P.F0_18 ]

let gate_structures_shrink () =
  let c35 = Net.palacharla_config dual P.F0_35 and c18 = Net.palacharla_config dual P.F0_18 in
  check Alcotest.bool "rename shrinks with feature size" true
    (P.rename_delay c18 < P.rename_delay c35);
  check Alcotest.bool "wakeup shrinks" true
    (P.wakeup_select_delay c18 < P.wakeup_select_delay c35);
  (* The bypass network barely shrinks. *)
  let shrink = P.bypass_delay c18 /. P.bypass_delay c35 in
  check Alcotest.bool "bypass keeps most of its delay" true (shrink > 0.85)

let config_validation () =
  Alcotest.check_raises "zero width" (Invalid_argument "Palacharla: issue_width < 1")
    (fun () -> ignore (P.cycle_time { P.issue_width = 0; window_size = 8; feature = P.F0_35 }))

let break_even_math () =
  check (Alcotest.float 1e-9) "25% slowdown needs 20% faster clock" 20.0
    (Net.required_clock_reduction_pct 25.0);
  check (Alcotest.float 1e-9) "no slowdown, no reduction" 0.0
    (Net.required_clock_reduction_pct 0.0);
  check (Alcotest.float 1e-6) "100% slowdown needs half the clock" 50.0
    (Net.required_clock_reduction_pct 100.0)

let speedup_metric () =
  check (Alcotest.float 1e-9) "slowdown negative" (-25.0)
    (Net.speedup_pct ~single_cycles:100 ~dual_cycles:125);
  check (Alcotest.float 1e-9) "speedup positive" 10.0
    (Net.speedup_pct ~single_cycles:100 ~dual_cycles:90)

(* The paper's dual-cluster machine: two point-to-point clusters. *)
let dual_net_pct ~single_cycles ~dual_cycles ~feature =
  Net.net_speedup_pct ~single_cycles ~cycles:dual_cycles ~feature dual

let net_runtime () =
  (* Equal cycles: the dual machine wins by exactly the clock ratio. *)
  let r35 = Net.net_runtime_ratio ~single_cycles:1000 ~cycles:1000 ~feature:P.F0_35 dual in
  check (Alcotest.float 1e-6) "clock ratio at equal cycles"
    (1.0 /. eight_vs_four_ratio P.F0_35) r35;
  (* The paper's threshold: a 25% slowdown loses at 0.35 um... *)
  let r = dual_net_pct ~single_cycles:100 ~dual_cycles:125 ~feature:P.F0_35 in
  check Alcotest.bool "25% slowdown loses at 0.35um" true (r < 0.0);
  (* ...but wins easily at 0.18 um. *)
  let r = dual_net_pct ~single_cycles:100 ~dual_cycles:125 ~feature:P.F0_18 in
  check Alcotest.bool "25% slowdown wins at 0.18um" true (r > 0.0)

let net_n_cluster () =
  let one = Machine.config_for_clusters 1 in
  (* One cluster is the monolith: no interconnect hop, so its clock is
     the 8-issue/128-window Palacharla path, and every ratio against the
     monolith reduces to the cycle ratio. *)
  List.iter
    (fun f ->
      check (Alcotest.float 0.0) "one cluster has no interconnect delay" 0.0
        (Net.interconnect_delay one f);
      check (Alcotest.float 0.0) "one cluster clocks at its Palacharla path"
        (P.cycle_time { P.issue_width = 8; window_size = 128; feature = f })
        (Net.cycle_time one f))
    [ P.F0_35; P.F0_18 ];
  check (Alcotest.float 1e-9) "one cluster has unit clock ratio" 1.0
    (Net.clock_ratio one P.F0_35);
  check (Alcotest.float 1e-9) "one cluster: run time = cycle ratio" 1.25
    (Net.net_runtime_ratio ~single_cycles:100 ~cycles:125 ~feature:P.F0_35 one)

let interconnect_binds_at_8 () =
  let two = Machine.config_for_clusters 2 and eight = Machine.config_for_clusters 8 in
  let ring = Machine.config_for_clusters ~topology:Mcsim_cluster.Interconnect.Ring 8 in
  (* The dual machine's clock is never interconnect-bound (the paper's
     model holds), but eight point-to-point clusters at 0.18 um span
     seven cluster pitches of wire: the interconnect outweighs the tiny
     one-issue cluster and caps the clock. *)
  check Alcotest.bool "dual clock is structure-bound" true
    (Net.interconnect_delay two P.F0_18 < P.cycle_time (Net.palacharla_config two P.F0_18));
  check Alcotest.bool "8-way p2p clock is wire-bound at 0.18um" true
    (Net.interconnect_delay eight P.F0_18 > P.cycle_time (Net.palacharla_config eight P.F0_18));
  (* A ring keeps links one pitch long, so it clocks no slower than p2p. *)
  check Alcotest.bool "ring clocks no slower than p2p at 8" true
    (Net.cycle_time ring P.F0_18 <= Net.cycle_time eight P.F0_18)

let net_crossover () =
  (* At 0.35um the break-even cycle slowdown is about 19%; check the sign
     flips around it. *)
  let net s = dual_net_pct ~single_cycles:1000 ~dual_cycles:(1000 + (10 * s)) ~feature:P.F0_35 in
  check Alcotest.bool "15% slowdown still wins" true (net 15 > 0.0);
  check Alcotest.bool "22% slowdown loses" true (net 22 < 0.0)

let suite =
  ( "timing",
    [ case "palacharla: 0.35um anchors" anchors_035;
      case "palacharla: 0.18um anchor" anchors_018;
      case "palacharla: critical structures" wire_dominates_at_018;
      case "palacharla: monotone in width" monotone_in_width;
      case "palacharla: gate vs wire scaling" gate_structures_shrink;
      case "palacharla: config validation" config_validation;
      case "net: break-even math" break_even_math;
      case "net: speedup metric" speedup_metric;
      case "net: runtime ratios" net_runtime;
      case "net: n-cluster model at one cluster" net_n_cluster;
      case "net: interconnect binds the 8-way clock at 0.18um" interconnect_binds_at_8;
      case "net: crossover near 19% at 0.35um" net_crossover ] )
