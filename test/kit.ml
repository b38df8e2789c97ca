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
