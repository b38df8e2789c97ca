(* Spans of the traced run: one per call the benchmark makes into a
   layer (a lib/<dir> library), held in memory and written out when the
   run ends. Times and minor-heap words live in an unboxed float array
   so that recording a span allocates nothing inside its own interval:
   the word counts of a deterministic flow repeat exactly. *)

type t = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  layer : string;
  name : string;
  item : string;  (** the unit of work: benchmark, config, sweep *)
  phase : string;  (** "setup", "timed", or "micro" for per-result passes *)
  f : Float.Array.t;  (** start, stop, words at start, words at stop *)
}

let enabled = ref false
let workload = ref ""
let phase = ref "timed"
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let start s = Float.Array.get s.f 0
let stop s = Float.Array.get s.f 1
let duration s = stop s -. start s
let words s = Float.Array.get s.f 3 -. Float.Array.get s.f 2

let with_ ~layer ~name ~item g =
  if not !enabled then g ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id = !next_id; parent; layer; name; item; phase = !phase; f = Float.Array.make 4 0.0 }
    in
    incr next_id;
    stack := s.id :: !stack;
    let close () =
      Float.Array.set s.f 3 (Gc.minor_words ());
      Float.Array.set s.f 1 (Unix.gettimeofday ());
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    Float.Array.set s.f 0 (Unix.gettimeofday ());
    Float.Array.set s.f 2 (Gc.minor_words ());
    match g () with
    | v ->
      close ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close ();
      Printexc.raise_with_backtrace e bt
  end

let all () = List.rev !recorded
let in_phase p = List.filter (fun s -> s.phase = p) (all ())
let named ?(phase = "timed") layer name =
  List.filter (fun s -> s.phase = phase && s.layer = layer && s.name = name) (all ())

(* Self time and self words per layer over [spans]: each span's own
   interval minus the part its children cover. *)
let self_by_layer spans =
  let child_t = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_t (duration s);
        add child_w (words s)
      end)
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      let t, w, n =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt by_layer s.layer)
      in
      Hashtbl.replace by_layer s.layer
        (t +. duration s -. get child_t, w +. words s -. get child_w, n + 1))
    spans;
  Hashtbl.fold (fun layer v acc -> (layer, v) :: acc) by_layer []
  |> List.sort compare

(* One CSV line per span, in recording order. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id,parent,workload,phase,layer,name,unit,start,end,minor_words\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d,%d,%s,%s,%s,%s,%s,%.6f,%.6f,%.0f\n" s.id s.parent !workload
            s.phase s.layer s.name s.item (start s) (stop s) (words s))
        (all ()))
