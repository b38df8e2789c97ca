(* Plumbing shared by the workloads: clocks, order statistics, metric
   records, process memory and the run's scratch directory. *)

let now () = Unix.gettimeofday ()

(* CPU seconds (user + system) of this process and of its children
   that have been waited for. The guest kernel leaves out time the host
   stole from the VM, which reached 30% of all CPU time on a shared
   2-vCPU VM, so host rates are per CPU second. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let cpu_timed f =
  let c0 = cpu_now () in
  let v = f () in
  (v, cpu_now () -. c0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> invalid_arg "median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Checks failed so far; a run with any is reported [correct: false]. *)
let problems : string list ref = ref []

let check ok what =
  if not ok then begin
    problems := what :: !problems;
    Printf.eprintf "mcbench: check failed: %s\n%!" what
  end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line o =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " metrics)

(* The end-to-end metrics every workload reports (see README.md): [ops]
   operations completed in [cpu] seconds, the median operation's
   latency [op_p50] (seconds), the median of [setups] (seconds) and the
   peak RSS of the simulating process. *)
let end_to_end ~ops ~cpu ~op_p50 ~setups ~rss =
  [ metric "ops_per_s" "1/s" (float_of_int ops /. cpu);
    metric "op_p50_ms" "ms" (1e3 *. op_p50);
    metric "setup_s" "s" (median setups);
    metric "peak_rss_mb" "MiB" rss ]

(* ------------------------------------------------------------------ *)
(* Process and host accounting                                         *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of [pid] in MiB (VmHWM of /proc/<pid>/status). *)
let peak_rss_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM line in /proc status"
      in
      scan ())

(* CPU seconds [pid] has used: utime + stime of /proc/<pid>/stat, in
   clock ticks of 1/100 s. *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let after = String.rindex line ')' + 2 in
  let fields = String.split_on_char ' ' (String.sub line after (String.length line - after)) in
  let field i = int_of_string (List.nth fields i) in
  float_of_int (field 11 + field 12) /. 100.0

(* Host CPU time stolen from the VM, as a share of all CPU time since
   [cpu_snapshot]: the first line of /proc/stat. Reported beside the
   timings because a busy host slows every one of them. *)
let cpu_snapshot () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  List.filter_map int_of_string_opt (String.split_on_char ' ' line)

let steal_share_since before =
  let d = List.map2 (fun a b -> b - a) before (cpu_snapshot ()) in
  let total = List.fold_left ( + ) 0 d in
  if total = 0 || List.length d < 8 then 0.0
  else float_of_int (List.nth d 7) /. float_of_int total

(* The measuring process runs on CPU 1 (and serve-cached's daemon on
   CPU 0) when there are two CPUs and taskset(1) can place it. Left to
   the scheduler, serve-cached's pair sometimes shared a vCPU and
   sometimes not, and p50 latency flipped between about 0.7 and 1.2 ms
   with it; pinned, its five-run spreads fell below 8%. *)
let pinned = ref false

let pin_self () =
  if Domain.recommended_domain_count () >= 2 then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let ok =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          match
            Unix.create_process "taskset"
              [| "taskset"; "-p"; "-c"; "1"; string_of_int (Unix.getpid ()) |]
              Unix.stdin null null
          with
          | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
          | exception Unix.Unix_error _ -> false)
    in
    pinned := ok
  end

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

(* Repeat [f] for at least [seconds] of wall time (and at least once),
   returning each call's result, wall seconds and CPU seconds in call
   order. *)
let repeat_for ~seconds f =
  let t_end = now () +. seconds in
  let rec go acc =
    let c0 = cpu_now () in
    let v, dt = timed f in
    let acc = (v, dt, cpu_now () -. c0) :: acc in
    if now () >= t_end then List.rev acc else go acc
  in
  go []

let fst3 (v, _, _) = v
let wall3 (_, w, _) = w
let cpu3 (_, _, c) = c
