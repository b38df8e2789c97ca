module Machine = Mcsim_cluster.Machine
module Distribution = Mcsim_cluster.Distribution
module Instr = Mcsim_isa.Instr
module Flat_trace = Mcsim_isa.Flat_trace
module Reg = Mcsim_isa.Reg
module Op = Mcsim_isa.Op_class

type outcome = {
  scenario : int;
  title : string;
  instr : Instr.t;
  plan : Distribution.plan;
  events : Machine.event list;
  total_cycles : int;
}

let r n = Reg.int_reg n

(* Producers define the add's sources so the scenario's dependences are
   live, as in the figures. *)
let setup_and_add scenario =
  match scenario with
  | 1 ->
    ( "all three registers local to cluster 0",
      [ r 2; r 4 ],
      Instr.make ~op:Op.Int_other ~srcs:[ r 2; r 4 ] ~dst:(Some (r 2)) )
  | 2 ->
    ( "source r1 lives in the other cluster: operand forwarded to the master (Figure 2)",
      [ r 4; r 1 ],
      Instr.make ~op:Op.Int_other ~srcs:[ r 4; r 1 ] ~dst:(Some (r 2)) )
  | 3 ->
    ( "destination lives in the other cluster: result forwarded to the slave (Figure 3)",
      [ r 0; r 2 ],
      Instr.make ~op:Op.Int_other ~srcs:[ r 0; r 2 ] ~dst:(Some (r 1)) )
  | 4 ->
    ( "global destination: master writes its copy, result forwarded to the slave's (Figure 4)",
      [ r 0; r 2 ],
      Instr.make ~op:Op.Int_other ~srcs:[ r 0; r 2 ] ~dst:(Some Reg.sp) )
  | 5 ->
    ( "operand forwarded and global destination: the slave suspends and wakes (Figure 5)",
      [ r 2; r 1 ],
      Instr.make ~op:Op.Int_other ~srcs:[ r 2; r 1 ] ~dst:(Some Reg.gp) )
  | n -> invalid_arg (Printf.sprintf "Scenario.run: %d (want 1-5)" n)

let event_cycle = function
  | Machine.Ev_fetch { cycle; _ }
  | Machine.Ev_dispatch { cycle; _ }
  | Machine.Ev_issue { cycle; _ }
  | Machine.Ev_operand_forward { cycle; _ }
  | Machine.Ev_result_forward { cycle; _ }
  | Machine.Ev_suspend { cycle; _ }
  | Machine.Ev_wakeup { cycle; _ }
  | Machine.Ev_writeback { cycle; _ }
  | Machine.Ev_retire { cycle; _ }
  | Machine.Ev_replay { cycle; _ } -> cycle

let event_seq = function
  | Machine.Ev_fetch { seq; _ }
  | Machine.Ev_dispatch { seq; _ }
  | Machine.Ev_issue { seq; _ }
  | Machine.Ev_operand_forward { seq; _ }
  | Machine.Ev_result_forward { seq; _ }
  | Machine.Ev_suspend { seq; _ }
  | Machine.Ev_wakeup { seq; _ }
  | Machine.Ev_writeback { seq; _ }
  | Machine.Ev_retire { seq; _ }
  | Machine.Ev_replay { seq; _ } -> seq

let run scenario =
  let title, producers, add = setup_and_add scenario in
  let b = Flat_trace.Builder.create () in
  List.iteri
    (fun pc instr -> Flat_trace.Builder.emit b ~pc instr)
    (List.map (fun dst -> Instr.make ~op:Op.Int_other ~srcs:[] ~dst:(Some dst)) producers
    @ [ add ]);
  let trace = Flat_trace.Builder.finish b in
  let target_seq = Flat_trace.length trace - 1 in
  let events = ref [] in
  let on_event e = if event_seq e = target_seq then events := e :: !events in
  let result = Machine.run_flat ~on_event (Machine.dual_cluster ()) trace in
  let sorted =
    List.stable_sort (fun a b -> compare (event_cycle a) (event_cycle b)) (List.rev !events)
  in
  { scenario; title; instr = add;
    plan = Distribution.plan (Machine.dual_cluster ()).Machine.assignment add;
    events = sorted;
    total_cycles = result.Machine.cycles }

let all () = List.map run [ 1; 2; 3; 4; 5 ]

let render o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "Scenario %d: %s\n  instruction: %s\n  distribution: %s\n" o.scenario
       o.title (Instr.to_string o.instr) (Distribution.describe o.plan));
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "  %a\n" Machine.pp_event e))
    o.events;
  Buffer.contents buf

let issue_cycle o role =
  List.find_map
    (function
      | Machine.Ev_issue { cycle; role = r; _ } when r = role -> Some cycle
      | _ -> None)
    o.events

let writeback_cycles o =
  List.filter_map
    (function
      | Machine.Ev_writeback { cycle; role; _ } -> Some (role, cycle)
      | _ -> None)
    o.events
