type counter_set = (string, int ref) Hashtbl.t

let counters_create () : counter_set = Hashtbl.create 64

let find_ref t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let counter = find_ref
let incr t name = Stdlib.incr (find_ref t name)
let add t name k = find_ref t name := !(find_ref t name) + k
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let to_alist t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Immutable snapshot of a counter set with O(log n) lookup: names and
   values in two parallel arrays sorted by name. *)
type lookup = { names : string array; values : int array }

let lookup_of_alist alist =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) alist in
  { names = Array.of_list (List.map fst sorted);
    values = Array.of_list (List.map snd sorted) }

let lookup_of_counters t = lookup_of_alist (to_alist t)

let lookup_get { names; values } name =
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      match String.compare name names.(mid) with
      | 0 -> values.(mid)
      | c when c < 0 -> search lo mid
      | _ -> search (mid + 1) hi
  in
  search 0 (Array.length names)

let lookup_to_alist { names; values } =
  Array.to_list (Array.map2 (fun k v -> (k, v)) names values)

(* ------------------------------------------------------------------ *)
(* Batch statistics over float arrays (sampled-simulation aggregation) *)
(* ------------------------------------------------------------------ *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    ss /. float_of_int (n - 1)
  end

(* Two-sided Student-t critical values. Rows are degrees of freedom
   1..30 then 40, 60, 120; columns are confidence 0.90, 0.95, 0.99.
   For df between tabulated rows the next smaller row is used (its
   critical value is larger, so the interval is conservative); above
   120 the normal limit applies. *)
let t_table =
  [| (1, (6.314, 12.706, 63.657)); (2, (2.920, 4.303, 9.925));
     (3, (2.353, 3.182, 5.841)); (4, (2.132, 2.776, 4.604));
     (5, (2.015, 2.571, 4.032)); (6, (1.943, 2.447, 3.707));
     (7, (1.895, 2.365, 3.499)); (8, (1.860, 2.306, 3.355));
     (9, (1.833, 2.262, 3.250)); (10, (1.812, 2.228, 3.169));
     (11, (1.796, 2.201, 3.106)); (12, (1.782, 2.179, 3.055));
     (13, (1.771, 2.160, 3.012)); (14, (1.761, 2.145, 2.977));
     (15, (1.753, 2.131, 2.947)); (16, (1.746, 2.120, 2.921));
     (17, (1.740, 2.110, 2.898)); (18, (1.734, 2.101, 2.878));
     (19, (1.729, 2.093, 2.861)); (20, (1.725, 2.086, 2.845));
     (21, (1.721, 2.080, 2.831)); (22, (1.717, 2.074, 2.819));
     (23, (1.714, 2.069, 2.807)); (24, (1.711, 2.064, 2.797));
     (25, (1.708, 2.060, 2.787)); (26, (1.706, 2.056, 2.779));
     (27, (1.703, 2.052, 2.771)); (28, (1.701, 2.048, 2.763));
     (29, (1.699, 2.045, 2.756)); (30, (1.697, 2.042, 2.750));
     (40, (1.684, 2.021, 2.704)); (60, (1.671, 2.000, 2.660));
     (120, (1.658, 1.980, 2.617)) |]

let t_normal_limit = (1.645, 1.960, 2.576)

let t_critical ?(confidence = 0.95) ~df () =
  if df < 1 then invalid_arg "Stats.t_critical: df < 1";
  let pick (c90, c95, c99) =
    if confidence = 0.90 then c90
    else if confidence = 0.95 then c95
    else if confidence = 0.99 then c99
    else invalid_arg "Stats.t_critical: confidence must be 0.90, 0.95 or 0.99"
  in
  let max_df, _ = t_table.(Array.length t_table - 1) in
  if df > max_df then pick t_normal_limit
  else begin
    (* Largest tabulated row with df' <= df (rows are sorted). *)
    let row = ref (snd t_table.(0)) in
    (try
       Array.iter
         (fun (df', cs) -> if df' <= df then row := cs else raise Exit)
         t_table
     with Exit -> ());
    pick !row
  end

let confidence_interval ?(confidence = 0.95) xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.confidence_interval: need at least 2 samples";
  let m = mean xs in
  let t = t_critical ~confidence ~df:(n - 1) () in
  (m, t *. sqrt (variance xs /. float_of_int n))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
