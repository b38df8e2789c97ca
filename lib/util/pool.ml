(* Work-stealing-free domain pool: jobs are claimed from a shared index
   behind one mutex. That is deliberately simple — the experiment layer's
   jobs are whole simulations (milliseconds to seconds each), so claim
   contention is irrelevant, and a deterministic job -> result mapping is
   the property that matters.

   Retry lives entirely inside the worker that owns the job: attempts,
   backoff and fault injection are pure functions of (job index, attempt
   number), so the outcome of a faulty run is independent of which domain
   ran which job. *)

let default_jobs () = Domain.recommended_domain_count ()

(* OCaml caps the number of live domains (128 on 64-bit); stay far below
   it so nested parallel_map calls cannot hit the runtime limit. *)
let max_spawn = 32

exception Injected_fault of { job : int; attempt : int }

type failure = {
  attempts : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

type 'a status = Done of 'a | Failed of failure

let failure_message f =
  Printf.sprintf "failed after %d attempt(s): %s" f.attempts (Printexc.to_string f.exn)

(* The exponent is capped before the shift: [1 lsl 62] and beyond wrap
   to negative or zero. 5 ms * 2^6 already exceeds the 250 ms cap. *)
let default_backoff k = Float.min 0.25 (0.005 *. Float.of_int (1 lsl min (k - 1) 6))

let no_backoff _ = 0.

let seeded_faults ~seed ~rate ~job ~attempt =
  (* One throwaway SplitMix64 stream per (seed, job, attempt): the
     decision depends on nothing else, so it replays identically under
     any domain schedule. *)
  let mix = (seed * 0x9E3779B9) lxor (job * 0x85EBCA6B) lxor (attempt * 0xC2B2AE35) in
  Rng.bernoulli (Rng.create mix) rate

(* One job, run to completion or to retry exhaustion. *)
let run_job ~retries ~backoff ~inject_fault f input i =
  let rec attempt k =
    match
      (match inject_fault with
      | Some p when p ~job:i ~attempt:k -> raise (Injected_fault { job = i; attempt = k })
      | Some _ | None -> ());
      f input
    with
    | y -> Done y
    | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      if k < retries then begin
        let delay = backoff (k + 1) in
        if delay > 0. then Unix.sleepf delay;
        attempt (k + 1)
      end
      else Failed { attempts = k + 1; exn; backtrace }
  in
  attempt 0

let map_core (type a b) ~retries ~backoff ~inject_fault ~stop_on_failure ~jobs (f : a -> b)
    (xs : a list) : b status list =
  if jobs < 1 then invalid_arg "Pool.parallel_map: jobs < 1";
  if retries < 0 then invalid_arg "Pool.parallel_map: retries < 0";
  let n = List.length xs in
  let jobs = min (min jobs n) max_spawn in
  let run_one = run_job ~retries ~backoff ~inject_fault f in
  if jobs <= 1 || n < 2 then List.mapi (fun i x -> run_one x i) xs
  else begin
    let input = Array.of_list xs in
    let results : b status option array = Array.make n None in
    let mutex = Mutex.create () in
    let next = ref 0 in
    (* Index of the lowest job observed to exhaust its retries; in
       stop_on_failure mode no new jobs start once it is set. *)
    let failed_at = ref max_int in
    let claim () =
      Mutex.lock mutex;
      let job =
        if (stop_on_failure && !failed_at < max_int) || !next >= n then None
        else begin
          let i = !next in
          next := i + 1;
          Some i
        end
      in
      Mutex.unlock mutex;
      job
    in
    let note_failure i =
      Mutex.lock mutex;
      if i < !failed_at then failed_at := i;
      Mutex.unlock mutex
    in
    let rec worker () =
      match claim () with
      | None -> ()
      | Some i ->
        let st = run_one input.(i) i in
        results.(i) <- Some st;
        (match st with Failed _ -> note_failure i | Done _ -> ());
        worker ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    List.init n (fun i ->
        match results.(i) with
        | Some st -> st
        | None ->
          (* Only reachable in stop_on_failure mode, for jobs never
             started after the first exhausted failure. *)
          assert (stop_on_failure && !failed_at < max_int);
          (match results.(!failed_at) with
          | Some (Failed _ as st) -> st
          | Some (Done _) | None -> assert false))
  end

let parallel_map ?(retries = 0) ?(backoff = default_backoff) ?inject_fault ~jobs f xs =
  let statuses =
    map_core ~retries ~backoff ~inject_fault ~stop_on_failure:true ~jobs f xs
  in
  (* Re-raise the lowest-index exhausted failure, as if the map had run
     serially up to it. *)
  let first_failure =
    List.find_map (function Failed f -> Some f | Done _ -> None) statuses
  in
  match first_failure with
  | Some f -> Printexc.raise_with_backtrace f.exn f.backtrace
  | None ->
    List.map (function Done y -> y | Failed _ -> assert false) statuses

let parallel_map_status ?(retries = 0) ?(backoff = default_backoff) ?inject_fault ~jobs f xs
    =
  map_core ~retries ~backoff ~inject_fault ~stop_on_failure:false ~jobs f xs

let fill ~find ~run xs =
  let looked = List.map (fun x -> (x, find x)) xs in
  let misses =
    List.filter_map (fun (x, hit) -> if Option.is_none hit then Some x else None) looked
  in
  let fresh = ref (match misses with [] -> [] | _ -> run misses) in
  List.map
    (fun (_, hit) ->
      match (hit, !fresh) with
      | Some v, _ -> v
      | None, v :: rest ->
        fresh := rest;
        v
      | None, [] -> invalid_arg "Pool.fill: run returned fewer results than misses")
    looked
