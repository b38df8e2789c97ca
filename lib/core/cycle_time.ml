module Machine = Mcsim_cluster.Machine
module Palacharla = Mcsim_timing.Palacharla
module Net = Mcsim_timing.Net_performance

type net_row = {
  benchmark : string;
  cycles_pct : float;
  net_035_pct : float;
  net_018_pct : float;
}

(* Table 2's machine pair. *)
let net (r : Table2.row) feature =
  Net.net_speedup_pct ~single_cycles:r.Table2.single_cycles
    ~cycles:r.Table2.local_cycles ~feature (Machine.dual_cluster ())

let analyse rows =
  List.map
    (fun (r : Table2.row) ->
      { benchmark = r.Table2.benchmark;
        cycles_pct = r.Table2.local_pct;
        net_035_pct = net r Palacharla.F0_35;
        net_018_pct = net r Palacharla.F0_18 })
    rows

let render rows =
  let header = [ "benchmark"; "cycles %"; "net @0.35um"; "net @0.18um" ] in
  let body =
    List.map
      (fun r ->
        [ r.benchmark; Printf.sprintf "%+.1f" r.cycles_pct;
          Printf.sprintf "%+.1f" r.net_035_pct; Printf.sprintf "%+.1f" r.net_018_pct ])
      rows
  in
  Mcsim_util.Text_table.render
    ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Right |]
    (header :: body)
  ^ "net = run time advantage of the dual-cluster machine once each machine clocks at its\n\
     Palacharla cycle time (positive = dual-cluster machine is faster end to end)\n"

let break_even_example () =
  let slowdown = 25.0 in
  let needed = Net.required_clock_reduction_pct slowdown in
  let ratio = Net.clock_ratio (Machine.dual_cluster ()) in
  Printf.sprintf
    "Worked example (§4.2): a %.0f%% cycle-count slowdown breaks even with a clock period\n\
     %.0f%% shorter (paper: 20%%).\n\
     Model clock ratios, 8-issue/128-window vs 4-issue/64-window:\n\
     \  0.35um: %.2fx (paper: ~1.18x) - partitioning buys a %.1f%% faster clock\n\
     \  0.18um: %.2fx (paper: ~1.82x) - partitioning buys a %.1f%% faster clock\n"
    slowdown needed (ratio Palacharla.F0_35)
    (100.0 -. (100.0 /. ratio Palacharla.F0_35))
    (ratio Palacharla.F0_18)
    (100.0 -. (100.0 /. ratio Palacharla.F0_18))

let conclusion_holds rows =
  [ ( List.exists (fun r -> r.net_035_pct < 0.0) rows,
      "at 0.35um the cycle-count penalty outweighs the clock gain on at least one benchmark"
    );
    ( List.for_all (fun r -> r.net_018_pct > 0.0) rows,
      "at 0.18um the dual-cluster machine wins on every benchmark" ) ]
