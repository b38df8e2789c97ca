(* Exporting results: run a reduced Table 2, write CSV and Markdown, save
   a compiled benchmark in the textual machine-program format, and read it
   back.

   Run with: dune exec examples/export_results.exe
   Files are written to the current directory: table2.csv, table2.md,
   compress.mcs *)

module Spec92 = Mcsim_workload.Spec92
module Pipeline = Mcsim_compiler.Pipeline
module Mach_text = Mcsim_compiler.Mach_text

let () =
  (* 1. A reduced Table 2 on two benchmarks. *)
  let rows =
    Mcsim.Table2.run ~max_instrs:30_000 ~benchmarks:[ Spec92.Gcc1; Spec92.Ora ] ()
  in
  Out_channel.with_open_text "table2.csv" (fun oc ->
      Out_channel.output_string oc (Mcsim.Report.table2_csv rows));
  Out_channel.with_open_text "table2.md" (fun oc ->
      Out_channel.output_string oc (Mcsim.Report.table2_markdown rows));
  Printf.printf "wrote table2.csv and table2.md (%d rows)\n" (List.length rows);
  print_string (Mcsim.Report.table2_markdown rows);

  (* 2. Save a compiled benchmark as text and reload it. *)
  let prog = Spec92.program Spec92.Compress in
  let profile = Mcsim_trace.Walker.profile prog in
  let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
  let text = Mach_text.print c.Pipeline.mach in
  Out_channel.with_open_text "compress.mcs" (fun oc -> Out_channel.output_string oc text);
  Printf.printf "wrote compress.mcs (%d bytes, %d static instructions)\n"
    (String.length text)
    (Mcsim_compiler.Mach_prog.static_instrs c.Pipeline.mach);
  (match Mach_text.parse (In_channel.with_open_text "compress.mcs" In_channel.input_all) with
  | Error e -> failwith e
  | Ok m ->
    let trace = Mcsim_trace.Walker.trace_flat ~max_instrs:20_000 m in
    let r = Mcsim_cluster.Machine.run_flat (Mcsim_cluster.Machine.dual_cluster ()) trace in
    Printf.printf "reloaded and simulated: %d instructions in %d cycles (IPC %.2f)\n"
      r.Mcsim_cluster.Machine.retired r.Mcsim_cluster.Machine.cycles
      r.Mcsim_cluster.Machine.ipc);

  (* 3. An ablation as CSV. *)
  let sweep = Mcsim.Ablation.run ~max_instrs:10_000 Mcsim.Ablation.Buffers Spec92.Gcc1 in
  print_newline ();
  print_string (Mcsim.Report.ablation_csv sweep)
