module Machine = Mcsim_cluster.Machine

(* A row is one copy of one instruction; marks are (cycle, symbol). The
   latest mark wins a cell, except that more "significant" later symbols
   never overwrite (we just append in arrival order and render last). *)
type row = {
  r_seq : int;
  r_role : Machine.role option;  (* None for whole-instruction marks *)
  mutable r_cluster : int;
  mutable r_marks : (int * char) list;
}

type t = {
  rows : (int * Machine.role option, row) Hashtbl.t;
  mutable order : (int * Machine.role option) list;  (* creation order, reversed *)
}

let create () = { rows = Hashtbl.create 64; order = [] }

let row t seq role =
  let key = (seq, role) in
  match Hashtbl.find_opt t.rows key with
  | Some r -> r
  | None ->
    let r = { r_seq = seq; r_role = role; r_cluster = -1; r_marks = [] } in
    Hashtbl.add t.rows key r;
    t.order <- key :: t.order;
    r

let mark ?cluster t seq role cycle symbol =
  let r = row t seq role in
  (match cluster with Some c -> r.r_cluster <- c | None -> ());
  r.r_marks <- (cycle, symbol) :: r.r_marks

let observer t = function
  | Machine.Ev_fetch { cycle; seq } -> mark t seq None cycle 'F'
  | Machine.Ev_dispatch { cycle; seq; cluster; role; _ } ->
    mark ~cluster t seq (Some role) cycle 'D'
  | Machine.Ev_issue { cycle; seq; cluster; role } ->
    mark ~cluster t seq (Some role) cycle 'I'
  | Machine.Ev_operand_forward { cycle; seq; _ } ->
    mark t seq (Some Machine.Slave_copy) cycle 'o'
  | Machine.Ev_result_forward { cycle; seq; _ } ->
    mark t seq (Some Machine.Master_copy) cycle 'r'
  | Machine.Ev_suspend { cycle; seq; _ } -> mark t seq (Some Machine.Slave_copy) cycle 's'
  | Machine.Ev_wakeup { cycle; seq; _ } -> mark t seq (Some Machine.Slave_copy) cycle 'w'
  | Machine.Ev_writeback { cycle; seq; role; _ } -> mark t seq (Some role) cycle 'W'
  | Machine.Ev_retire { cycle; seq } -> mark t seq None cycle 'R'
  | Machine.Ev_replay { cycle; seq } -> mark t seq None cycle 'X'

let render ?(first_seq = min_int) ?(last_seq = max_int) ?(max_width = 100) t =
  if max_width <= 0 then
    invalid_arg (Printf.sprintf "Timeline.render: max_width = %d (must be > 0)" max_width);
  let keys =
    List.rev t.order
    |> List.filter (fun (seq, _) -> seq >= first_seq && seq <= last_seq)
    |> List.sort (fun (s1, r1) (s2, r2) -> if s1 <> s2 then compare s1 s2 else compare r1 r2)
  in
  let rows = List.map (Hashtbl.find t.rows) keys in
  let t0 =
    List.fold_left
      (fun acc r -> List.fold_left (fun acc (c, _) -> min acc c) acc r.r_marks)
      max_int rows
  in
  if t0 = max_int then "(no events)\n"
  else begin
    let t1 =
      List.fold_left
        (fun acc r -> List.fold_left (fun acc (c, _) -> max acc c) acc r.r_marks)
        t0 rows
    in
    let width = min max_width (t1 - t0 + 1) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "cycles %d..%d\n" t0 (t0 + width - 1));
    List.iter
      (fun r ->
        let label =
          match r.r_role with
          | None -> Printf.sprintf "#%-4d %-9s" r.r_seq ""
          | Some role ->
            Printf.sprintf "#%-4d %-6s %s" r.r_seq (Machine.role_to_string role)
              (if r.r_cluster >= 0 then Printf.sprintf "C%d" r.r_cluster else "  ")
        in
        let cells = Bytes.make width '.' in
        List.iter
          (fun (c, sym) ->
            let i = c - t0 in
            if i >= 0 && i < width then Bytes.set cells i sym)
          (List.rev r.r_marks);
        Buffer.add_string buf (Printf.sprintf "%-16s %s\n" label (Bytes.to_string cells)))
      rows;
    Buffer.contents buf
  end
