(* The paper's §4.2/§5 argument: when does partitioning pay off?

   Runs a reduced Table 2 (two benchmarks, shorter traces, so it finishes
   in seconds) and folds in the Palacharla clock model at 0.35um and
   0.18um.

   Run with: dune exec examples/cycle_time.exe *)

module Machine = Mcsim_cluster.Machine
module Palacharla = Mcsim_timing.Palacharla
module Net = Mcsim_timing.Net_performance

let () =
  print_string (Mcsim.Cycle_time.break_even_example ());
  print_newline ();
  print_endline "Structure delays from the calibrated model (ps):";
  List.iter
    (fun feature ->
      List.iter
        (fun cfg_name_cfg ->
          let name, cfg = cfg_name_cfg in
          Printf.printf "  %s %-22s rename=%4.0f wakeup+select=%4.0f regfile=%4.0f bypass=%4.0f -> cycle %4.0f (%s)\n"
            (Palacharla.feature_to_string feature) name
            (Palacharla.rename_delay cfg) (Palacharla.wakeup_select_delay cfg)
            (Palacharla.regfile_delay cfg) (Palacharla.bypass_delay cfg)
            (Palacharla.cycle_time cfg) (Palacharla.critical_structure cfg))
        [ ("4-issue, 64-window", Net.palacharla_config (Machine.dual_cluster ()) feature);
          ("8-issue, 128-window", Net.palacharla_config (Machine.single_cluster ()) feature) ])
    [ Palacharla.F0_35; Palacharla.F0_18 ];
  print_newline ();
  print_endline "Net performance on two benchmarks (short traces):";
  let rows =
    Mcsim.Experiment.run
      (Mcsim.Table2.matrix ~max_instrs:40_000
         ~benchmarks:[ Mcsim_workload.Spec92.Ora; Mcsim_workload.Spec92.Tomcatv ] ())
    |> Mcsim.Experiment.get_all
  in
  print_string (Mcsim.Cycle_time.render (Mcsim.Cycle_time.analyse rows));
  List.iter
    (fun (ok, what) -> Printf.printf "[%s] %s\n" (if ok then "ok" else "??") what)
    (Mcsim.Cycle_time.conclusion_holds (Mcsim.Cycle_time.analyse rows))
