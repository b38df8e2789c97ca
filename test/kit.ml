(* Helpers shared by the test files: the rows of a sweep, and qcheck
   properties drawn from a replayable seed. *)

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
