(* Helpers shared by the test files: the rows of a sweep, qcheck
   properties drawn from a replayable seed, and a JSON tree generator. *)

(* Every row of a matrix run over [jobs] domains with the other
   execution knobs at their defaults; the first failure raises. *)
let rows ?jobs m = Mcsim.Experiment.get_all (Mcsim.Experiment.run ?jobs m)

(* qcheck's own QCHECK_SEED when set, else a fixed default, so a failing
   draw replays on the next run; test/dune reruns the suite when the
   variable changes. Printed once, as qcheck prints its own seed. *)
let seed =
  lazy
    (let s =
       Option.value ~default:1 (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

(* A property as an alcotest case; each draws from its own fresh state. *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t

(* A JSON tree that [Json.of_string] reads back from its own text: any
   ints, finite floats, any byte strings, lists and objects (duplicate
   keys included) nested a few levels deep. *)
let json =
  let module Json = Mcsim_obs.Json in
  let open QCheck.Gen in
  let str = string_size (int_bound 12) in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map (fun f -> Json.Float (if Float.is_finite f then f else 0.5)) float;
        map (fun s -> Json.String s) str ]
  in
  sized_size (int_bound 30)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 3))));
               (2, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (n / 3))))) ])

(* Every dispatch of [trace] on [cfg], checked against the pure planner.
   A group is one seq's [Ev_dispatch] events, the executing copy's first,
   so a replayed seq dispatches a new group. Under a dynamic policy the
   group's (cluster, role) multiset and scenario must equal
   [Distribution.plan_steered asg ~master:c], [c] the executing copy's
   cluster, and under [Modulo] the [k]th group executes in cluster
   [k mod n]; under [Static] they must equal [Distribution.plan asg
   ~prefer:p] for some [p]. Every seq must dispatch. Returns the number
   of groups. *)
let check_dispatches ~what (cfg : Mcsim_cluster.Machine.config) trace =
  let module M = Mcsim_cluster.Machine in
  let module D = Mcsim_cluster.Distribution in
  let module Steering = Mcsim_cluster.Steering in
  let asg = cfg.M.assignment in
  let n = Mcsim_cluster.Assignment.num_clusters asg in
  let groups = ref [] and current = ref None in
  let close () =
    Option.iter (fun g -> groups := g :: !groups) !current;
    current := None
  in
  let on_event = function
    | M.Ev_dispatch { seq; cluster; role = (M.Single_copy | M.Master_copy) as role; scenario; _ } ->
      close ();
      current := Some (seq, scenario, cluster, [ (cluster, role) ])
    | M.Ev_dispatch { seq; cluster; role = M.Slave_copy; _ } -> (
      match !current with
      | Some (s, scenario, exec, copies) when s = seq ->
        current := Some (s, scenario, exec, (cluster, M.Slave_copy) :: copies)
      | _ -> Alcotest.failf "%s: a slave of #%d dispatched outside its group" what seq)
    | _ -> ()
  in
  ignore (M.run_flat ~on_event cfg trace);
  close ();
  let copies_of = function
    | D.Single { cluster } -> [ (cluster, M.Single_copy) ]
    | D.Multi { master; slaves; _ } ->
      (master, M.Master_copy) :: List.map (fun sl -> (sl.D.s_cluster, M.Slave_copy)) slaves
  in
  let matches copies scenario plan =
    List.sort compare copies = List.sort compare (copies_of plan) && scenario = D.scenario plan
  in
  let dispatched = Array.make (Mcsim_isa.Flat_trace.length trace) false in
  List.iteri
    (fun k (seq, scenario, exec, copies) ->
      dispatched.(seq) <- true;
      let instr = Mcsim_isa.Flat_trace.instr trace seq in
      let ok =
        if Steering.is_dynamic cfg.M.steering && n > 1 then
          matches copies scenario (D.plan_steered asg ~master:exec instr)
          && (cfg.M.steering <> Steering.Modulo || exec = k mod n)
        else List.exists (fun p -> matches copies scenario (D.plan asg ~prefer:p instr)) (List.init n Fun.id)
      in
      if not ok then
        Alcotest.failf "%s: group %d (#%d, %s) dispatched as [%s], scenario %d" what k seq
          (Mcsim_isa.Instr.to_string instr)
          (String.concat "; "
             (List.rev_map (fun (c, r) -> Printf.sprintf "C%d %s" c (M.role_to_string r)) copies))
          scenario)
    (List.rev !groups);
  Array.iteri (fun seq d -> if not d then Alcotest.failf "%s: #%d never dispatched" what seq) dispatched;
  List.length !groups
