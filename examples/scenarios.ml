(* The five execution scenarios of paper §2.1, replayed through the real
   dual-cluster machine — the runnable version of Figures 2-5.

   Run with: dune exec examples/scenarios.exe *)

(* The scenario's recorded events of the instruction of interest, replayed
   into a timeline. *)
let timeline_of (o : Mcsim.Scenario.outcome) =
  let t = Mcsim.Timeline.create () in
  List.iter (Mcsim.Timeline.observer t) o.Mcsim.Scenario.events;
  Mcsim.Timeline.render t

let () =
  print_endline "Dual-cluster execution scenarios (paper §2.1, Figures 2-5)";
  print_endline "Register assignment: even registers -> cluster 0, odd -> cluster 1,";
  print_endline "sp (r30) and gp (r29) global.\n";
  List.iter
    (fun o ->
      print_string (Mcsim.Scenario.render o);
      print_endline "  timeline (F fetch, D dispatch, I issue, o operand-fwd, r result-fwd,";
      print_endline "            s suspend, w wake, W writeback, R retire):";
      String.split_on_char '\n' (timeline_of o)
      |> List.iter (fun l -> if l <> "" then Printf.printf "    %s\n" l);
      print_newline ())
    (Mcsim.Scenario.all ());
  print_endline "Reading the timelines:";
  print_endline "- scenario 2: the slave issues first, writes the forwarded operand into the";
  print_endline "  master cluster's operand transfer buffer, and the master issues the very";
  print_endline "  next cycle (the paper's Figure 2).";
  print_endline "- scenario 3: the master issues first and the slave one cycle later for this";
  print_endline "  one-cycle add - its writeback picks the result out of the result transfer";
  print_endline "  buffer (Figure 3).";
  print_endline "- scenario 5: the slave issues once to forward the operand, suspends, and is";
  print_endline "  awakened by the master's result without consuming a second issue slot";
  print_endline "  (Figure 5)."
