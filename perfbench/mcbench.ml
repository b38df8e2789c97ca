(* The benchmark's measuring program: runs one workload for a given
   seed and duration, checks its outputs, and prints the result line
   (see README.md). *)

open Common

let usage =
  "mcbench --workload (table2|steer-sampled|serve-cached) --seed N --seconds S --trace (0|1) \
   --mcsim PATH --work DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let mcsim = ref "" and work = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N walker seed (serve-cached: stream seed)");
      ("--seconds", Arg.Set_float seconds, "S length of each timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--mcsim", Arg.Set_string mcsim, "PATH the mcsim CLI (serves serve-cached)");
      ("--work", Arg.Set_string work, "DIR scratch directory, emptied first") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !work = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let work = fresh_dir !work in
  pin_self ();
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  Span.workload := !workload;
  let outcome =
    match !workload with
    | "table2" -> W_table2.run ~work ~seed ~seconds ~traced
    | "steer-sampled" -> W_steer.run ~work ~seed ~seconds ~traced
    | "serve-cached" -> W_serve.run ~mcsim:!mcsim ~work ~seed ~seconds ~traced
    | w ->
      prerr_endline ("mcbench: unknown workload " ^ w);
      exit 2
  in
  if traced then Span.write (Filename.concat work "spans.csv");
  Printf.printf "%s: %d operations attempted, %d failed%s\n" !workload outcome.attempted
    outcome.failed
    (match !problems with
    | [] -> ""
    | ps -> "; failed checks: " ^ String.concat "; " (List.rev ps));
  print_endline (result_line outcome)
