type feature = F0_35 | F0_18

let feature_to_string = function F0_35 -> "0.35um" | F0_18 -> "0.18um"

type config = {
  issue_width : int;
  window_size : int;
  feature : feature;
}

(* Gate-dominated structures scale with the drawn feature size; the
   bypass network is wire-dominated and keeps ~90% of its delay across
   the 0.35 -> 0.18 shrink. *)
let gate_scale = function F0_35 -> 1.0 | F0_18 -> 0.18 /. 0.35
let wire_scale = function F0_35 -> 1.0 | F0_18 -> 0.9

let check c =
  if c.issue_width < 1 then invalid_arg "Palacharla: issue_width < 1";
  if c.window_size < 1 then invalid_arg "Palacharla: window_size < 1"

(* Calibration (at 0.35 um, in ps):
   - wakeup+select: 800 + 48.4*w + 42.4*log2(window); hits 1248 at
     (4, 64) and 1484 at (8, 128) — the published anchor points.
   - bypass: 20.28 * w^2 of wire; 1168/0.9 = 1298 at w=8 so that the
     0.18 um 8-issue bypass (1168 ps) divided by the 0.18 um 4-issue
     wakeup+select (642 ps) gives the published 1.82.
   - rename and regfile grow linearly in width and never bind. *)

let log2 x = log (float_of_int x) /. log 2.0

let rename_delay c =
  check c;
  gate_scale c.feature *. (500.0 +. (50.0 *. float_of_int c.issue_width))

let wakeup_select_delay c =
  check c;
  gate_scale c.feature
  *. (800.0 +. (48.4 *. float_of_int c.issue_width) +. (42.4 *. log2 c.window_size))

let regfile_delay c =
  check c;
  (* Ports grow with issue width: 2 reads + 1 write per slot. *)
  let ports = 3 * c.issue_width in
  gate_scale c.feature *. (550.0 +. (22.0 *. float_of_int ports))

let bypass_delay c =
  check c;
  wire_scale c.feature *. 20.28 *. float_of_int (c.issue_width * c.issue_width)

let structures =
  [ ("rename", rename_delay); ("wakeup+select", wakeup_select_delay);
    ("regfile", regfile_delay); ("bypass", bypass_delay) ]

let cycle_time c =
  List.fold_left (fun acc (_, f) -> max acc (f c)) 0.0 structures

let critical_structure c =
  let name, _ =
    List.fold_left
      (fun ((_, best) as acc) (n, f) ->
        let d = f c in
        if d > best then (n, d) else acc)
      ("none", 0.0) structures
  in
  name
