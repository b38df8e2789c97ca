(* A machine-event auditor: replays the event stream of a Machine.run_flat and
   checks global pipeline invariants that must hold for ANY trace and ANY
   configuration. Used by the property tests in test_audit.ml.

   Invariants:
   - per instruction: fetch <= dispatch <= issue < writeback <= retire
     (for each copy; suspended slaves may wake between issue and
     writeback);
   - every retired instruction was dispatched, and every dispatched copy
     either retires or is squashed by a later replay;
   - per cycle and per cluster, issues never exceed the configured total
     issue width;
   - retires never exceed the retire width per cycle, and retire order is
     the trace order (within one run segment; replays rewind);
   - an operand forward implies a preceding slave issue; a wakeup implies
     a preceding suspend;
   - scenario numbers reported at dispatch are within 1..5. *)

module Machine = Mcsim_cluster.Machine

type audit = {
  mutable errors : string list;
  (* per (seq, role, cluster): a multi-distributed instruction has one
     slave copy per participating cluster *)
  issues : (int * Machine.role * int, int) Hashtbl.t;
  dispatches : (int * Machine.role * int, int) Hashtbl.t;
  writebacks : (int * Machine.role * int, int) Hashtbl.t;
  suspends : (int * int, int) Hashtbl.t;
  copies : (int, (Machine.role * int) list) Hashtbl.t;
      (* per seq: the (role, cluster) of every copy dispatched since the
         seq was last replayed, the keys a replay clears *)
  mutable youngest : int;  (* largest seq dispatched since the latest replay *)
  retires : (int, int) Hashtbl.t;
  issues_per_cycle : (int * int, int) Hashtbl.t;  (* (cycle, cluster) *)
  retires_per_cycle : (int, int) Hashtbl.t;
  mutable last_retired_seq : int;
  mutable replay_count : int;
}

let create () =
  { errors = [];
    issues = Hashtbl.create 256;
    dispatches = Hashtbl.create 256;
    writebacks = Hashtbl.create 256;
    suspends = Hashtbl.create 64;
    copies = Hashtbl.create 256;
    youngest = -1;
    retires = Hashtbl.create 256;
    issues_per_cycle = Hashtbl.create 256;
    retires_per_cycle = Hashtbl.create 256;
    last_retired_seq = -1;
    replay_count = 0 }

let err a fmt = Printf.ksprintf (fun s -> a.errors <- s :: a.errors) fmt

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let on_event a = function
  | Machine.Ev_fetch _ -> ()
  | Machine.Ev_dispatch { cycle; seq; cluster; role; scenario } ->
    if scenario < 1 || scenario > 5 then err a "seq %d: scenario %d out of range" seq scenario;
    Hashtbl.replace a.dispatches (seq, role, cluster) cycle;
    let keys = Option.value ~default:[] (Hashtbl.find_opt a.copies seq) in
    if not (List.mem (role, cluster) keys) then
      Hashtbl.replace a.copies seq ((role, cluster) :: keys);
    if seq > a.youngest then a.youngest <- seq
  | Machine.Ev_issue { cycle; seq; cluster; role } ->
    (match Hashtbl.find_opt a.dispatches (seq, role, cluster) with
    | None -> err a "seq %d %s: issued without dispatch" seq (Machine.role_to_string role)
    | Some d when cycle <= d ->
      err a "seq %d %s: issued at %d, dispatched at %d" seq (Machine.role_to_string role)
        cycle d
    | Some _ -> ());
    if Hashtbl.mem a.issues (seq, role, cluster) then
      err a "seq %d %s C%d: double issue" seq (Machine.role_to_string role) cluster;
    Hashtbl.replace a.issues (seq, role, cluster) cycle;
    bump a.issues_per_cycle (cycle, cluster)
  | Machine.Ev_operand_forward { seq; from_cluster; _ } ->
    if not (Hashtbl.mem a.issues (seq, Machine.Slave_copy, from_cluster)) then
      err a "seq %d: operand forward without slave issue" seq
  | Machine.Ev_result_forward { seq; from_cluster; _ } ->
    if not (Hashtbl.mem a.issues (seq, Machine.Master_copy, from_cluster)) then
      err a "seq %d: result forward without master issue" seq
  | Machine.Ev_suspend { cycle; seq; cluster } -> Hashtbl.replace a.suspends (seq, cluster) cycle
  | Machine.Ev_wakeup { cycle; seq; cluster } -> (
    match Hashtbl.find_opt a.suspends (seq, cluster) with
    | None -> err a "seq %d: wakeup without suspend" seq
    | Some s when cycle < s -> err a "seq %d: woke at %d before suspend at %d" seq cycle s
    | Some _ -> ())
  | Machine.Ev_writeback { cycle; seq; cluster; role } -> (
    Hashtbl.replace a.writebacks (seq, role, cluster) cycle;
    match Hashtbl.find_opt a.issues (seq, role, cluster) with
    | None -> err a "seq %d %s: writeback without issue" seq (Machine.role_to_string role)
    | Some i when cycle <= i ->
      err a "seq %d %s: writeback at %d not after issue at %d" seq
        (Machine.role_to_string role) cycle i
    | Some _ -> ())
  | Machine.Ev_retire { cycle; seq } ->
    if seq <= a.last_retired_seq then
      err a "retire order violated: seq %d after %d" seq a.last_retired_seq;
    a.last_retired_seq <- seq;
    if Hashtbl.mem a.retires seq then err a "seq %d: double retire" seq;
    Hashtbl.replace a.retires seq cycle;
    bump a.retires_per_cycle cycle
  | Machine.Ev_replay { seq; _ } ->
    a.replay_count <- a.replay_count + 1;
    (* Everything from seq on will be refetched: clear its bookkeeping so
       re-execution does not look like double issue/retire. Only seqs
       dispatched since the latest replay can be in flight, so the walk
       covers the window, not the whole run. *)
    for s = seq to a.youngest do
      match Hashtbl.find_opt a.copies s with
      | None -> ()
      | Some keys ->
        List.iter
          (fun (role, cluster) ->
            Hashtbl.remove a.issues (s, role, cluster);
            Hashtbl.remove a.dispatches (s, role, cluster);
            Hashtbl.remove a.writebacks (s, role, cluster);
            Hashtbl.remove a.suspends (s, cluster))
          keys;
        Hashtbl.remove a.copies s
    done;
    a.youngest <- seq - 1

let finish a ~(cfg : Machine.config) ~trace_len =
  (* Width limits. *)
  Hashtbl.iter
    (fun (cycle, cluster) n ->
      if n > cfg.Machine.issue_limits.Mcsim_isa.Issue_rules.total then
        err a "cycle %d cluster %d: %d issues exceed the issue width" cycle cluster n)
    a.issues_per_cycle;
  Hashtbl.iter
    (fun cycle n ->
      if n > cfg.Machine.retire_width then
        err a "cycle %d: %d retires exceed the retire width" cycle n)
    a.retires_per_cycle;
  (* Completeness: every trace element retired exactly once. *)
  for seq = 0 to trace_len - 1 do
    if not (Hashtbl.mem a.retires seq) then err a "seq %d never retired" seq
  done;
  (* Retires follow the final writebacks of their copies. *)
  Hashtbl.iter
    (fun (seq, role, _) wb ->
      match Hashtbl.find_opt a.retires seq with
      | Some r when r < wb ->
        err a "seq %d retired at %d before %s writeback at %d" seq r
          (Machine.role_to_string role) wb
      | Some _ | None -> ())
    a.writebacks;
  List.rev a.errors

let run_audited cfg trace =
  let a = create () in
  let result = Machine.run_flat ~on_event:(on_event a) cfg trace in
  let errors = finish a ~cfg ~trace_len:(Mcsim_isa.Flat_trace.length trace) in
  (result, errors)
