(* steer-sampled: the `mcsim sample` path (trace store + sampled
   simulation, default policy) on the two N-cluster machines with
   dispatch-time steering, over every benchmark and both schedulers. *)

open Common
module Spec92 = Mcsim_workload.Spec92
module Machine = Mcsim_cluster.Machine
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Flat_trace = Mcsim_isa.Flat_trace
module Trace_store = Mcsim.Trace_store
module Sampling = Mcsim_sampling.Sampling
module Stats = Mcsim_util.Stats
module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics
module Manifest = Mcsim_obs.Manifest
module P = Mcsim_serve.Protocol

(* With the default policy (a unit of 4 000 instructions every 25 000,
   the first at a seeded offset of 0-21 000), a trace of 250 000 fits ten
   units at every offset. At 240 000 about half the seeds fit nine units
   and the rest ten, and the cost of an estimate moved by a tenth with
   the seed. *)
let max_instrs = 250_000

(* (name, clusters, config). The 8-cluster crossbar runs dependence
   steering: under ineffectual steering it simulates about 2.5x slower,
   which would crowd the 4-cluster ring out of the timed phase. *)
let machines =
  let cfg topology n steering =
    { (Machine.config_for_clusters ~topology n) with Machine.steering }
  in
  [ ("n4_ring", 4, cfg Mcsim_cluster.Interconnect.Ring 4 Mcsim_cluster.Steering.Ineffectual);
    ("n8_xbar", 8, cfg Mcsim_cluster.Interconnect.Crossbar 8 Mcsim_cluster.Steering.Dependence) ]

let cluster_counts = List.map (fun (_, n, _) -> n) machines
let policy seed = { Sampling.default_policy with Sampling.seed }

(* One estimate per (machine, benchmark, scheduler), in that order. *)
let cells =
  List.concat_map
    (fun (mname, clusters, cfg) ->
      List.concat_map
        (fun b -> List.map (fun (_, sched) -> (mname, clusters, cfg, b, sched)) W_table2.schedulers)
        Spec92.all)
    machines

let walk ~seed ~clusters b sched () =
  let prog = Spec92.program b in
  let profile = Walker.profile ~seed prog in
  let c = Pipeline.compile ~clusters ~profile ~scheduler:sched prog in
  Walker.trace_flat ~seed ~max_instrs c.Pipeline.mach

let load store ~seed (_, clusters, _, b, sched) =
  Trace_store.load_or_build store (W_table2.key ~clusters ~seed ~max_instrs b sched)
    (walk ~seed ~clusters b sched)

(* One estimate per cell, each with the CPU seconds its load and
   sampled run took: an operation, as one `mcsim sample` run. *)
let sweep ~seed ~dir () =
  let store = Trace_store.open_ ~dir in
  List.map
    (fun ((_, _, cfg, _, _) as cell) ->
      cpu_timed (fun () ->
          Sampling.run_flat ~policy:(policy seed) cfg (fst (load store ~seed cell))))
    cells

(* What must hold for every estimate, and what must repeat exactly. *)
let covers s =
  s.Sampling.detailed_instrs + s.Sampling.warmed_instrs = s.Sampling.trace_instrs
  && List.length s.Sampling.intervals >= 2

let fingerprint s =
  (s.Sampling.est_cycles, s.Sampling.mean_ipc, s.Sampling.ci_halfwidth,
   s.Sampling.detailed_instrs, s.Sampling.warmed_instrs)

(* ------------------------------------------------------------------ *)
(* The traced flow: Sampling.run_flat's schedule, call by call          *)
(* ------------------------------------------------------------------ *)

(* Functional warming and detailed intervals exactly as
   [Sampling.run_flat] places them, so each gets its own span. With
   [prof] the detailed intervals also feed the per-stage counters. *)
let traced_estimate ?prof ~policy ~mname ~item cfg trace =
  Span.with_ ~layer:"sampling" ~name:"run" ~item (fun () ->
      let p = policy in
      let n = Flat_trace.length trace in
      let unit = p.Sampling.warmup + p.Sampling.detail in
      let max_offset = p.Sampling.interval - unit in
      let offset =
        if max_offset = 0 then 0
        else Mcsim_util.Rng.int (Mcsim_util.Rng.create p.Sampling.seed) (max_offset + 1)
      in
      let units = if n < offset + unit then 0 else 1 + ((n - offset - unit) / p.Sampling.interval) in
      let st =
        Span.with_ ~layer:"cluster" ~name:"init" ~item (fun () ->
            Machine.init_state ?profile:prof cfg)
      in
      let warm lo hi =
        Span.with_ ~layer:"cluster" ~name:"warm" ~item (fun () ->
            Machine.warm_flat st trace ~lo ~hi)
      in
      let cpis =
        Array.init units (fun k ->
            let start = offset + (k * p.Sampling.interval) in
            warm (if k = 0 then 0 else start - p.Sampling.interval + unit) start;
            let iv =
              Span.with_ ~layer:"cluster" ~name:mname ~item (fun () ->
                  Machine.run_interval_flat st trace ~lo:start ~hi:(start + unit)
                    ~measure_from:(start + p.Sampling.warmup))
            in
            Stats.ratio (max 1 iv.Machine.iv_cycles) iv.Machine.iv_retired)
      in
      warm (if units = 0 then 0 else offset + ((units - 1) * p.Sampling.interval) + unit) n;
      let mean_cpi, cpi_half = Stats.confidence_interval ~confidence:0.95 cpis in
      let mean_ipc = if mean_cpi = 0.0 then 0.0 else 1.0 /. mean_cpi in
      ( (Float.to_int (Float.round (float_of_int n *. mean_cpi)), mean_ipc,
         cpi_half *. mean_ipc *. mean_ipc, units * unit, n - (units * unit)),
        Machine.state_result st ))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* Each estimate as the result store files a sample unit and the serve
   daemon answers a sample sweep. *)
let estimate_results ~seed estimates =
  List.map2
    (fun (_, clusters, cfg, b, sched) s ->
      let manifest =
        Manifest.make ~seed ~benchmark:(Spec92.name b) ~scheduler:(Pipeline.scheduler_name sched)
          ~trace_instrs:max_instrs ~sampling:(policy seed) cfg
      in
      let json () =
        [ ("sampling", Metrics.sampling_json s); ("result", Metrics.result_json s.Sampling.machine) ]
      in
      let fields = json () in
      { Layers.sweep =
          P.Sample
            { bench = b; machine = `Dual; scheduler = sched; max_instrs; seed; engine = `Wakeup;
              policy = policy seed; clusters = Some clusters; topology = cfg.Machine.topology;
              steering = cfg.Machine.steering };
        encode = (fun () -> Json.to_string ~minify:true (Json.Obj (json ())));
        decode =
          (fun text ->
            let j = match Json.of_string text with Ok j -> j | Error e -> failwith e in
            let machine =
              Option.get (Option.bind (Json.member "result" j) Metrics.result_of_json)
            in
            ignore
              (Option.get
                 (Option.bind (Json.member "sampling" j) (Metrics.sampling_of_json ~seed ~machine))));
        units = [ (manifest, "sample", fields) ];
        answer = Json.Obj fields })
    cells estimates

let run ~work ~seed ~seconds ~traced =
  let dir, setup_cpu =
    W_table2.setup_stores ~work ~reps:setup_reps ~seed ~max_instrs ~cluster_counts
  in
  ignore (W_table2.check_store dir ~seed ~max_instrs ~cluster_counts);
  let since = cpu_snapshot () in
  let sweeps = repeat_for ~seconds (sweep ~seed ~dir) in
  W_table2.report_phase "steer-sampled" ~setup_cpu ~repeats:sweeps ~since;
  let first = List.map fst (fst3 (List.hd sweeps)) in
  List.iter
    (fun s -> check (covers s) "every estimate covers its whole trace with at least 2 units")
    first;
  let expected = List.map fingerprint first in
  let failed =
    List.fold_left
      (fun acc sw ->
        acc
        + List.length
            (List.filter Fun.id
               (List.map2 (fun (s, _) e -> fingerprint s <> e || not (covers s)) (fst3 sw) expected)))
      0 sweeps
  in
  check (failed = 0) "every sweep reproduces the first sweep's estimates";
  let attempted = List.length sweeps * List.length cells in
  let cpu = List.fold_left (fun acc sw -> acc +. cpu3 sw) 0.0 sweeps in
  let per_sweep = float_of_int (List.fold_left (fun a s -> a + s.Sampling.trace_instrs) 0 first) in
  Printf.eprintf "steer-sampled: %.4f Minstr/s per CPU second; ci_rel_pct %.4f\n%!"
    (per_sweep *. float_of_int (List.length sweeps) /. cpu /. 1e6)
    (100.0 *. mean (List.map Sampling.ci_rel first));
  let metrics =
    if not traced then
      end_to_end ~ops:attempted ~cpu
        ~op_p50:(median (List.concat_map (fun sw -> List.map snd (fst3 sw)) sweeps))
        ~setups:setup_cpu ~rss:(peak_rss_mib (Unix.getpid ()))
    else begin
      let setup_wall, walked =
        W_table2.traced_setup ~work ~seed ~max_instrs ~cluster_counts
      in
      let store = Trace_store.open_ ~dir in
      let flow () =
        List.map
          (fun ((mname, _, cfg, b, _) as cell) ->
            let item = Spec92.name b in
            let trace, hit =
              Span.with_ ~layer:"trace_store" ~name:"load" ~item (fun () -> load store ~seed cell)
            in
            let est, r = traced_estimate ~policy:(policy seed) ~mname ~item cfg trace in
            (cell, trace, hit, est, r))
          cells
      in
      let iters = repeat_for ~seconds flow in
      List.iter
        (fun it ->
          check
            (List.map (fun (_, _, _, est, _) -> est) (fst3 it) = expected)
            "the traced flow reproduces the untraced sampled estimates")
        iters;
      let out = fst3 (List.hd iters) in
      let sum f = List.fold_left (fun a x -> a + f x) 0 out in
      let warmed = sum (fun (_, _, _, (_, _, _, _, w), _) -> w)
      and detailed = sum (fun (_, _, _, (_, _, _, d, _), _) -> d) in
      let p = policy seed in
      Span.enabled := false;
      let prof = Machine.profile_counters () in
      List.iter
        (fun ((mname, _, cfg, b, _), trace, _, _, _) ->
          ignore (traced_estimate ~prof ~policy:p ~mname ~item:(Spec92.name b) cfg trace))
        out;
      Span.enabled := true;
      let m =
        Layers.metrics ~work
          { Layers.empty with
            wall = List.fold_left (fun acc it -> acc +. wall3 it) 0.0 iters;
            setup_wall;
            overhead = (median (List.map cpu3 iters) /. median (List.map cpu3 sweeps)) -. 1.0;
            walked = float_of_int walked;
            lookups = List.concat_map (fun it -> List.map (fun (_, _, h, _, _) -> h) (fst3 it)) iters;
            (* Every cell's whole trace is either warmed or simulated. *)
            simulated = float_of_int ((warmed + detailed) * List.length iters);
            runs =
              List.map
                (fun (_, trace, _, (cycles, _, _, _, _), r) -> (r, Flat_trace.length trace, cycles))
                out;
            profile = Some (prof, float_of_int detailed);
            detailed;
            warmed;
            units = detailed / (p.Sampling.warmup + p.Sampling.detail);
            results = estimate_results ~seed first }
      in
      Span.enabled := false;
      m
    end
  in
  { correct = !problems = []; attempted; failed; metrics }
