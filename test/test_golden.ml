(* Golden-output tests: exact renderings of the deterministic artifacts.
   These pin the user-visible behaviour; update them deliberately when the
   model changes. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let figure6_render () =
  let got = Mcsim.Figure6.render (Mcsim.Figure6.run ()) in
  let expected =
    "Figure 6: local-scheduler walkthrough\n\
     block visit order:      4 1 5 3 2   (paper: 4 1 5 3 2)\n\
     assignment order:       A B G H C D E   (paper: A B G H C D E)\n\
     clusters:               A=C0 B=C0 C=C0 D=C1 E=C1 G=C0 H=C1 (S is a global-register \
     candidate)\n"
  in
  check Alcotest.string "figure6 text" expected got

let table1_render () =
  let got = Mcsim.Config.table1 () in
  let expected =
    "#                    int mul  int other  fp all  fp div  fp other  ld/st  control\n\
     -------------------  -------  ---------  ------  ------  --------  -----  -------  \
     ---------\n\
     1 single, per cycle  8        8          4       4       4         4      4        \
     (total 8)\n\
     2 dual, per cluster  4        4          2       2       2         2      2        \
     (total 4)\n\
     latency in cycles    6        1          -       8/16    3         2*     1\n\
     * one load-delay slot: load-to-use latency is 2 cycles on a hit.\n\
     The fp divider is unpipelined (8-cycle 32-bit, 16-cycle 64-bit divides).\n"
  in
  check Alcotest.string "table1 text" expected got

let scenario2_events () =
  let o = Mcsim.Scenario.run 2 in
  let got =
    String.concat "; "
      (List.map
         (fun e -> Format.asprintf "%a" Mcsim_cluster.Machine.pp_event e)
         o.Mcsim.Scenario.events)
  in
  let expected =
    "[  16] fetch #2; [  17] dispatch #2 C0 master (scenario 2); \
     [  17] dispatch #2 C1 slave (scenario 2); [  19] issue #2 C1 slave; \
     [  20] operand #2 C1 -> operand buffer of C0; [  20] issue #2 C0 master; \
     [  21] writeback #2 C0 master; [  21] retire #2"
  in
  check Alcotest.string "scenario 2 event log" expected got

let scenario5_events () =
  let o = Mcsim.Scenario.run 5 in
  let got =
    String.concat "; "
      (List.map
         (fun e -> Format.asprintf "%a" Mcsim_cluster.Machine.pp_event e)
         o.Mcsim.Scenario.events)
  in
  let expected =
    "[  16] fetch #2; [  17] dispatch #2 C0 master (scenario 5); \
     [  17] dispatch #2 C1 slave (scenario 5); [  19] issue #2 C1 slave; \
     [  20] operand #2 C1 -> operand buffer of C0; [  20] suspend #2 C1; \
     [  20] issue #2 C0 master; [  21] writeback #2 C0 master; \
     [  21] result #2 C0 -> result buffer of C1; [  21] wakeup #2 C1; \
     [  22] writeback #2 C1 slave; [  22] retire #2"
  in
  check Alcotest.string "scenario 5 event log" expected got

let palacharla_numbers () =
  let module P = Mcsim_timing.Palacharla in
  let module Net = Mcsim_timing.Net_performance in
  let module Machine = Mcsim_cluster.Machine in
  let single = Machine.single_cluster () and dual = Machine.dual_cluster () in
  let cycle m f = P.cycle_time (Net.palacharla_config m f) in
  check Alcotest.string "summary"
    "0.35um: 1248 -> 1484 (1.19x); 0.18um: 642 -> 1168 (1.82x)"
    (Printf.sprintf "0.35um: %.0f -> %.0f (%.2fx); 0.18um: %.0f -> %.0f (%.2fx)"
       (cycle dual P.F0_35) (cycle single P.F0_35)
       (Net.clock_ratio dual P.F0_35)
       (cycle dual P.F0_18) (cycle single P.F0_18)
       (Net.clock_ratio dual P.F0_18))

let suite =
  ( "golden",
    [ case "figure 6 rendering" figure6_render;
      case "table 1 rendering" table1_render;
      case "scenario 2 event log" scenario2_events;
      case "scenario 5 event log" scenario5_events;
      case "palacharla anchor numbers" palacharla_numbers ] )
