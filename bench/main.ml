(* Reproduction harness: one experiment per table/figure of the paper.

   Usage:
     dune exec bench/main.exe                 -- run everything (reduced size)
     dune exec bench/main.exe -- fig2 fig6    -- run selected experiments
     dune exec bench/main.exe -- all --full   -- full two-hour trace
     dune exec bench/main.exe -- -j 4         -- sweep points on 4 domains
     dune exec bench/main.exe -- --smoke --json  -- CI-sized run + BENCH files

   The experiment list is the [experiments] table at the bottom of this
   file; --help (and any unknown name) prints it, so it never goes
   stale here.

   Flags:
     -j N / --jobs N   run independent sweep points on a pool of N domains
                       (default: Pool.default_jobs; 1 = sequential path).
                       Sweeps compute all points first and print afterwards,
                       so the rows are byte-identical for every N.
     --json[=DIR]      write one BENCH_<experiment>.json per experiment
                       (wall-clock, jobs, seed, per-experiment counters)
                       into DIR (default: the current directory).
     --smoke           CI-sized run: 3 000-frame trace, fewer sweep points,
                       and a reduced default experiment set.

   Absolute numbers differ from the paper (synthetic trace, software
   substrate); each experiment prints the paper's reported values next
   to ours so the *shape* — who wins, by what factor, where crossovers
   fall — can be compared directly. *)

module Trace = Rcbr_traffic.Trace
module Synthetic = Rcbr_traffic.Synthetic
module Sigma_rho = Rcbr_queue.Sigma_rho
module Fluid = Rcbr_queue.Fluid
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal
module Beam = Rcbr_core.Beam
module Online = Rcbr_core.Online
module Predictor = Rcbr_core.Predictor
module Rate_grid = Rcbr_core.Rate_grid
module Eb = Rcbr_effbw.Effective_bandwidth
module Chernoff = Rcbr_effbw.Chernoff
module Multiscale = Rcbr_markov.Multiscale
module Modulated = Rcbr_markov.Modulated
module Smg = Rcbr_sim.Smg
module Mbac = Rcbr_sim.Mbac
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Rng = Rcbr_util.Rng
module Pool = Rcbr_util.Pool
module Json = Rcbr_util.Json
module Tables = Rcbr_util.Tables

let pf = Format.printf

let section title =
  pf "@.==========================================================@.";
  pf "  %s@." title;
  pf "==========================================================@."

(* --- shared context ------------------------------------------------ *)

type ctx = {
  frames : int;
  trace : Trace.t;
  mean : float;
  buffer : float;
  schedule : Schedule.t;  (** reference RCBR schedule, ~10 s interval *)
  pool : Pool.t option;  (** [None] with [-j 1]: the sequential path *)
  smoke : bool;  (** CI-sized run: fewer frames and sweep points *)
  extras : (string * Json.t) list ref;
      (** experiment-specific counters for the BENCH file, cleared by the
          driver before each experiment *)
}

let emit ctx key v = ctx.extras := (key, v) :: !(ctx.extras)
let trace_seed = 42

(* FNV-style checksum of a schedule's segment list; joins the
   [schedule_checksums] identity field, so any numeric drift in the
   exact or beam solver trips compare.exe. *)
let schedule_checksum s =
  Array.fold_left
    (fun h seg ->
      let h = ((h * 1_000_003) + seg.Schedule.start_slot) land max_int in
      ((h * 1_000_003) + Int64.to_int (Int64.bits_of_float seg.Schedule.rate))
      land max_int)
    0 (Schedule.segments s)

let make_ctx ~full ~smoke ~pool =
  let frames =
    if full then Synthetic.default_frames else if smoke then 3_000 else 20_000
  in
  let trace = Synthetic.star_wars ~frames ~seed:trace_seed () in
  let buffer = 300_000. in
  let params = Optimal.default_params ~buffer ~cost_ratio:3e5 trace in
  let schedule, stats =
    Optimal.solve_with_stats ~frontier_cap:100 params trace
  in
  ( {
      frames;
      trace;
      mean = Trace.mean_rate trace;
      buffer;
      schedule;
      pool;
      smoke;
      extras = ref [];
    },
    stats )

(* --- Table A: headline numbers (Sections I, IV-A, V-B) ------------- *)

let table_a ctx =
  section "Table A -- headline numbers (paper Sections I / IV-A / V-B)";
  pf "%a@." Trace.pp_summary ctx.trace;
  pf "@.paper: trace mean 374 kb/s; max 3-frame burst slightly under 300 kb@.";
  pf "measured: mean %.0f kb/s; 3-frame burst %.0f kb@." (ctx.mean /. 1e3)
    (Trace.window_max_bits ctx.trace 3 /. 1e3);
  let rho300 =
    Sigma_rho.min_rate ~trace:ctx.trace ~buffer:ctx.buffer ~target_loss:1e-6
  in
  pf "@.paper: static CBR with 300 kb buffer and 1e-6 loss needs 4.06x mean@.";
  pf "measured: rho(300 kb) = %.0f kb/s = %.2fx mean@." (rho300 /. 1e3)
    (rho300 /. ctx.mean);
  let b105 =
    Sigma_rho.min_buffer ~trace:ctx.trace ~rate:(1.05 *. ctx.mean)
      ~target_loss:1e-6
  in
  pf "@.paper: serving at 1.05x mean without renegotiation needs ~100 Mb of buffer@.";
  pf "measured: %.1f Mb   (vs RCBR's 300 kb -- a %.0fx reduction)@."
    (b105 /. 1e6) (b105 /. ctx.buffer);
  pf "@.paper: RCBR at ~1.05x mean renegotiates about every 12 s@.";
  pf "measured: reference schedule reserves %.2fx mean, renegotiates every %.1f s@."
    (Schedule.mean_rate ctx.schedule /. ctx.mean)
    (Schedule.mean_renegotiation_interval ctx.schedule);
  let r = Schedule.simulate_buffer ctx.schedule ~trace:ctx.trace ~capacity:ctx.buffer in
  pf "          (bit loss through the 300 kb buffer: %.3g)@."
    (Fluid.loss_fraction r)

(* --- Fig. 2: efficiency vs renegotiation interval ------------------ *)

let fig2 ctx =
  section "Fig. 2 -- bandwidth efficiency vs mean renegotiation interval";
  pf "paper: OPT reaches >99%% efficiency at one renegotiation per ~7 s;@.";
  pf "       the AR(1) heuristic needs ~1/s for ~95%% (B=300 kb).@.@.";
  pf "OPT (sweep of the cost ratio alpha = K/c):@.";
  pf "%12s %10s %14s %12s@." "alpha" "renegs" "interval (s)" "efficiency";
  (* Every cost-ratio point is an independent trellis solve: compute them
     all on the pool, then print in input order. *)
  let opt_rows =
    Pool.map ?pool:ctx.pool
      (fun alpha ->
        let p =
          (* lint: allow E001 — Optimal's needed-rate memo is a
             mutex-guarded cache; a lost race recomputes the same
             deterministic value, never a different one *)
          Optimal.default_params ~buffer:ctx.buffer ~cost_ratio:alpha ctx.trace
        in
        let s, st = Optimal.solve_with_stats ~frontier_cap:100 p ctx.trace in
        (alpha, s, st))
      [ 1e4; 5e4; 2e5; 1e6; 5e6 ]
  in
  List.iter
    (fun (alpha, s, _) ->
      pf "%12.0f %10d %14.2f %11.2f%%@." alpha (Schedule.n_renegotiations s)
        (Schedule.mean_renegotiation_interval s)
        (100. *. Schedule.bandwidth_efficiency s ~trace:ctx.trace))
    opt_rows;
  emit ctx "alpha_sweep"
    (Json.List
       (List.map
          (fun (alpha, _, st) ->
            Json.Obj
              [
                ("alpha", Json.Float alpha);
                ("expanded_nodes", Json.Int st.Optimal.expanded);
                ("max_frontier", Json.Int st.Optimal.max_frontier);
              ])
          opt_rows));
  emit ctx "schedule_checksums"
    (Json.List
       (List.map (fun (_, s, _) -> Json.Int (schedule_checksum s)) opt_rows));
  pf "@.AR(1) heuristic (sweep of the granularity Delta; B_l=10 kb, B_h=150 kb, T=5):@.";
  pf "%12s %10s %14s %12s %14s@." "Delta" "renegs" "interval (s)" "efficiency"
    "backlog (kb)";
  let online_rows =
    Pool.map ?pool:ctx.pool
      (fun delta ->
        let p = { Online.default_params with Online.granularity = delta } in
        (delta, Online.run p ctx.trace))
      [ 25e3; 50e3; 100e3; 200e3; 400e3 ]
  in
  List.iter
    (fun (delta, o) ->
      pf "%9.0f kb %10d %14.2f %11.2f%% %14.1f@." (delta /. 1e3)
        (Schedule.n_renegotiations o.Online.schedule)
        (Schedule.mean_renegotiation_interval o.Online.schedule)
        (100. *. Schedule.bandwidth_efficiency o.Online.schedule ~trace:ctx.trace)
        (o.Online.max_backlog /. 1e3))
    online_rows

(* --- Fig. 5: the (sigma, rho) curve -------------------------------- *)

let fig5 ctx =
  section "Fig. 5 -- (sigma, rho) curve of the trace at 1e-6 bit loss";
  pf "paper: rho(300 kb) = 4.06x mean; the curve stays far above the mean@.";
  pf "       until the buffer reaches ~100 Mb (rho = 1.05x).@.@.";
  pf "%14s %14s %10s@." "buffer (bits)" "rho (kb/s)" "rho/mean";
  let buffers = [| 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8; 2e8 |] in
  Array.iter
    (fun (b, r) -> pf "%14.0f %14.1f %10.3f@." b (r /. 1e3) (r /. ctx.mean))
    (Sigma_rho.curve ~trace:ctx.trace ~buffers ~target_loss:1e-6)

(* --- Fig. 6: statistical multiplexing gain ------------------------- *)

let fig6 ctx =
  section "Fig. 6 -- capacity per stream for 1e-6 loss, three scenarios";
  pf "paper: CBR flat at 4.06x mean; RCBR tracks the shared-buffer bound@.";
  pf "       closely and needs < 1/3 of CBR at 20 streams; its asymptote@.";
  pf "       is the inverse bandwidth efficiency.@.@.";
  let cfg =
    {
      Smg.trace = ctx.trace;
      schedule = ctx.schedule;
      buffer = ctx.buffer;
      target_loss = 1e-6;
      replications = 3;
      seed = 7;
    }
  in
  let cbr = Smg.min_capacity_cbr cfg in
  pf "%6s %12s %12s %12s   (x mean rate)@." "n" "CBR" "shared" "RCBR";
  let ns = if ctx.smoke then [ 1; 2; 5; 10; 20 ] else [ 1; 2; 5; 10; 20; 50; 100 ] in
  (* Batched searches: the per-n binary searches (and the replications
     inside each) fan out over the pool; results come back in [ns] order
     with pool-independent values, so the printed rows are byte-identical
     for every -j. *)
  let shared = Smg.min_capacities_shared ?pool:ctx.pool cfg ~ns in
  let rcbr = Smg.min_capacities_rcbr ?pool:ctx.pool cfg ~ns in
  List.iter2
    (fun n (shared, rcbr) ->
      pf "%6d %12.3f %12.3f %12.3f@." n (cbr /. ctx.mean) (shared /. ctx.mean)
        (rcbr /. ctx.mean))
    ns
    (List.combine shared rcbr);
  pf "@.RCBR asymptote (n -> inf): %.3f x mean (= 1/bandwidth-efficiency)@."
    (Smg.asymptotic_rcbr_capacity cfg /. ctx.mean)

(* --- Figs. 7/8: memoryless MBAC ------------------------------------ *)

let mbac_cfg ctx ~capacity ~load ~seed =
  let arrival_rate =
    load *. capacity
    /. (Schedule.mean_rate ctx.schedule *. Schedule.duration ctx.schedule)
  in
  Mbac.default_config ~schedule:ctx.schedule ~capacity ~arrival_rate
    ~target:1e-3 ~seed

let capacities = [ 8.; 16.; 32.; 64. ]
let loads = [ 0.6; 1.0; 1.4; 2.0 ]

(* The load x capacity grid in row-major order, one (config, controller
   factory) entry per point.  Each point is an independent simulation
   keyed by its own seed, so [Mbac.run_many] fans the grid out over the
   pool and the printed rows do not depend on -j. *)
let mbac_grid ctx ~seed make_controller =
  Array.of_list
    (List.concat_map
       (fun load ->
         List.map
           (fun cap_mult ->
             let capacity = cap_mult *. ctx.mean in
             ( mbac_cfg ctx ~capacity ~load ~seed,
               fun () -> make_controller ~capacity ))
           capacities)
       loads)

(* The order-sensitive mixing of the MBAC and multihop checksums. *)
let mix h v = ((h * 1_000_003) + v) land max_int
let mix_float h x = mix h (Int64.to_int (Int64.bits_of_float x))

(* Order-sensitive checksum over the bits of every run's metric floats
   and its window count; joins the [result_checksum] identity field, so
   a moved failure or utilization estimate trips compare.exe even where
   the admit/deny sequence (the decision hashes) holds. *)
let mbac_checksum ms =
  Array.fold_left
    (fun h (m : Mbac.metrics) ->
      let h =
        List.fold_left mix_float h
          [
            m.failure_probability;
            m.failure_halfwidth;
            m.utilization;
            m.utilization_halfwidth;
            m.call_blocking;
            m.denial_fraction;
            m.mean_calls_in_system;
          ]
      in
      mix h m.windows)
    0 ms

let emit_decision_hashes ctx ms =
  emit ctx "decision_hashes"
    (Json.List
       (Array.to_list
          (Array.map
             (fun m -> Json.Int m.Mbac.admission.Controller.decision_hash)
             ms)))

let print_grid cell =
  List.iteri
    (fun i load ->
      pf "%22.1f" load;
      List.iteri (fun j _ -> cell (i * List.length capacities + j)) capacities;
      pf "@.")
    loads

let fig7 ctx =
  section "Fig. 7 -- memoryless MBAC: renegotiation failure probability";
  pf "paper: 3-4 orders of magnitude above the 1e-3 target for small links,@.";
  pf "       improving with link capacity, worsening with offered load.@.@.";
  pf "%22s" "load \\ capacity";
  List.iter (fun c -> pf " %11.0fx" c) capacities;
  pf "@.";
  let ms =
    Mbac.run_many ?pool:ctx.pool
      (mbac_grid ctx ~seed:17 (fun ~capacity ->
           Controller.memoryless ~capacity ~target:1e-3))
  in
  print_grid (fun k -> pf " %12.2e" ms.(k).Mbac.failure_probability);
  pf "(target: 1.0e-03)@.";
  emit ctx "grid_points" (Json.Int (Array.length ms));
  emit ctx "total_windows"
    (Json.Int (Array.fold_left (fun acc m -> acc + m.Mbac.windows) 0 ms));
  emit_decision_hashes ctx ms;
  emit ctx "result_checksum" (Json.Int (mbac_checksum ms))

let fig8 ctx =
  section "Fig. 8 -- memoryless MBAC: utilization normalized to perfect knowledge";
  pf "paper: > 1 (over-admission) for small link capacities.@.@.";
  pf "%22s" "load \\ capacity";
  List.iter (fun c -> pf " %11.0fx" c) capacities;
  pf "@.";
  let descriptor = Descriptor.of_schedule ctx.schedule in
  let perfect_grid =
    mbac_grid ctx ~seed:23 (fun ~capacity ->
        Controller.perfect ~descriptor ~capacity ~target:1e-3)
  in
  let memoryless_grid =
    mbac_grid ctx ~seed:23 (fun ~capacity ->
        Controller.memoryless ~capacity ~target:1e-3)
  in
  (* One batch for both controllers: 2 x |grid| points in flight. *)
  let ms =
    Mbac.run_many ?pool:ctx.pool (Array.append perfect_grid memoryless_grid)
  in
  let n = Array.length perfect_grid in
  print_grid (fun k ->
      pf " %12.3f" (ms.(n + k).Mbac.utilization /. ms.(k).Mbac.utilization))

(* --- Fig. 9/10: the memory-based scheme ----------------------------- *)

let fig9 ctx =
  section "Figs. 9/10 -- memory-based MBAC vs memoryless (load 1.4, target 1e-3)";
  pf "paper: the memory scheme restores robustness, meeting the target at a@.";
  pf "       modest utilization cost where the memoryless scheme misses it.@.@.";
  pf "%12s %16s %16s %14s %14s@." "capacity" "fail(memoryless)" "fail(memory)"
    "util(m-less)" "util(memory)";
  let cap_mults = [ 8.; 16.; 32. ] in
  let entry cap_mult make_controller =
    let capacity = cap_mult *. ctx.mean in
    ( mbac_cfg ctx ~capacity ~load:1.4 ~seed:29,
      fun () -> make_controller ~capacity )
  in
  let entries =
    Array.of_list
      (List.concat_map
         (fun c ->
           [
             entry c (fun ~capacity -> Controller.memoryless ~capacity ~target:1e-3);
             entry c (fun ~capacity -> Controller.memory ~capacity ~target:1e-3);
           ])
         cap_mults)
  in
  let ms = Mbac.run_many ?pool:ctx.pool entries in
  List.iteri
    (fun i cap_mult ->
      let ml = ms.(2 * i) and mem = ms.((2 * i) + 1) in
      pf "%11.0fx %16.2e %16.2e %14.3f %14.3f@." cap_mult
        ml.Mbac.failure_probability mem.Mbac.failure_probability
        ml.Mbac.utilization mem.Mbac.utilization)
    cap_mults;
  emit_decision_hashes ctx ms;
  emit ctx "result_checksum" (Json.Int (mbac_checksum ms))

(* --- Admission kernel --------------------------------------------------- *)

(* The memory-scheme load x capacity grid on the incremental O(levels)
   kernel; the record's [wall_s] is the kernel pass alone.  The
   per-point decision hashes pin the admit/deny sequences, which the
   test suite checks against the seed's per-decision rebuild
   (test/seed_oracle.ml). *)
let mbac_admit ctx =
  section "MBAC admission kernel -- incremental aggregate + one-probe test";
  pf "Memory-scheme MBAC over the full load x capacity grid on the@.";
  pf "incremental aggregate and one Chernoff probe per decision.@.@.";
  let runs =
    Mbac.run_many ?pool:ctx.pool
      (mbac_grid ctx ~seed:43 (fun ~capacity ->
           Controller.memory ~capacity ~target:1e-3))
  in
  let admission_total f =
    Array.fold_left (fun acc m -> acc + f m.Mbac.admission) 0 runs
  in
  let decisions = admission_total (fun a -> a.Controller.decisions) in
  let mgf_evals =
    admission_total (fun a -> a.Controller.solver.Chernoff.Solver.mgf_evals)
  in
  let fits_evals =
    admission_total (fun a -> a.Controller.solver.Chernoff.Solver.fits_evals)
  in
  let fallbacks =
    admission_total (fun a -> a.Controller.solver.Chernoff.Solver.fallbacks)
  in
  pf "grid: %d points, %d admission decisions@." (Array.length runs) decisions;
  pf "solver work: %d log-MGF evals, %d fit probes (%d fallbacks)@." mgf_evals
    fits_evals fallbacks;
  emit ctx "grid_points" (Json.Int (Array.length runs));
  emit ctx "decisions" (Json.Int decisions);
  emit_decision_hashes ctx runs;
  emit ctx "solver_mgf_evals" (Json.Int mgf_evals);
  emit ctx "solver_fits_evals" (Json.Int fits_evals);
  emit ctx "solver_fallbacks" (Json.Int fallbacks)

(* --- Chernoff sweep: shared warm-started solver vs cold queries ------ *)

(* The fig2/fig6-style usage pattern: many max_calls /
   capacity_for_target queries against one fixed marginal (sweeping n,
   target and capacity, repeated per replication).  The cold path
   rebuilds its scratch state inside every query; the solver keeps one
   log-MGF table and warm-starts each search from the previous answer.
   The answers are required to be bit-identical. *)
let chernoff_sweep ctx =
  section "Chernoff sweep -- shared warm-started solver vs cold per-query path";
  let marginal = Schedule.marginal ctx.schedule in
  let mean = Chernoff.mean marginal in
  let ns = [ 2; 5; 10; 20; 50; 100; 200; 500 ] in
  let targets = [ 1e-2; 1e-3; 1e-4 ] in
  let cap_mults = [ 4.; 8.; 16.; 32.; 64.; 128. ] in
  let reps = if ctx.smoke then 30 else 150 in
  let sweep ~capacity_for_target ~max_calls =
    let acc = ref [] in
    for _ = 1 to reps do
      List.iter
        (fun target ->
          List.iter
            (fun n -> acc := capacity_for_target ~n ~target :: !acc)
            ns;
          List.iter
            (fun m ->
              acc :=
                float_of_int (max_calls ~capacity:(m *. mean) ~target) :: !acc)
            cap_mults)
        targets
    done;
    !acc
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold, cold_wall =
    time (fun () ->
        sweep
          ~capacity_for_target:(fun ~n ~target ->
            Chernoff.capacity_for_target marginal ~n ~target)
          ~max_calls:(fun ~capacity ~target ->
            Chernoff.max_calls marginal ~capacity ~target))
  in
  let solver = Chernoff.Solver.of_marginal marginal in
  let warm, warm_wall =
    time (fun () ->
        sweep
          ~capacity_for_target:(fun ~n ~target ->
            Chernoff.Solver.capacity_for_target solver ~n ~target)
          ~max_calls:(fun ~capacity ~target ->
            Chernoff.Solver.max_calls solver ~capacity ~target))
  in
  let queries = List.length cold in
  let identical = List.for_all2 Float.equal cold warm in
  let checksum =
    List.fold_left
      (fun h x ->
        ((h * 1_000_003) + Int64.to_int (Int64.bits_of_float x)) land max_int)
      0 warm
  in
  let st = Chernoff.Solver.stats solver in
  pf "marginal: %d levels; %d queries (%d reps of n/target/capacity sweeps)@."
    (Array.length marginal) queries reps;
  pf "cold path: %.3f s@." cold_wall;
  pf "warm solver: %.3f s  (%d log-MGF evals, %d fit probes, %d fallbacks)@."
    warm_wall st.Chernoff.Solver.mgf_evals st.Chernoff.Solver.fits_evals
    st.Chernoff.Solver.fallbacks;
  pf "speedup:   %.2fx@." (cold_wall /. warm_wall);
  pf "all %d results bit-identical: %b@." queries identical;
  emit ctx "queries" (Json.Int queries);
  emit ctx "results_identical" (Json.Bool identical);
  emit ctx "result_checksum" (Json.Int checksum);
  emit ctx "cold_wall_s" (Json.Float cold_wall);
  emit ctx "warm_wall_s" (Json.Float warm_wall);
  emit ctx "speedup" (Json.Float (cold_wall /. warm_wall));
  emit ctx "solver_mgf_evals" (Json.Int st.Chernoff.Solver.mgf_evals);
  emit ctx "solver_fits_evals" (Json.Int st.Chernoff.Solver.fits_evals);
  emit ctx "solver_fallbacks" (Json.Int st.Chernoff.Solver.fallbacks)

(* --- Analysis: Section V-A / Fig. 4 model --------------------------- *)

let analysis _ctx =
  section "Analysis check -- multiple time-scale model (Section V-A, Fig. 4)";
  let ms = Multiscale.fig4_example () in
  let b = 30. and target = 1e-3 in
  let per = Eb.subchain_equivalent_bandwidths ms ~buffer:b ~target_loss:target in
  let means = Multiscale.subchain_mean_rates ms in
  let occ = Multiscale.subchain_occupancy ms in
  pf "three-subchain source; buffer %.0f units, overflow target %.0e@.@." b target;
  pf "%10s %12s %12s %12s@." "subchain" "occupancy" "mean rate" "equiv bw";
  Array.iteri
    (fun k m -> pf "%10d %12.3f %12.3f %12.3f@." k occ.(k) m per.(k))
    means;
  let total = Eb.multiscale_equivalent_bandwidth ms ~buffer:b ~target_loss:target in
  pf "@.formula (9): equivalent bandwidth = max over subchains = %.3f@." total;
  pf "overall mean rate: %.3f  (static allocation wastes %.1fx)@."
    (Multiscale.mean_rate ms)
    (total /. Multiscale.mean_rate ms);
  (* Simulation check: the flattened chain through a buffer at the
     predicted rate must meet the overflow target. *)
  let flat = Multiscale.flatten ms in
  let rng = Rng.create 3 in
  let data = Modulated.simulate flat rng ~steps:500_000 in
  let t = Trace.create ~fps:1. data in
  let loss r = Fluid.loss_fraction (Fluid.run_constant ~capacity:b ~rate:r t) in
  pf "@.simulated loss at the predicted rate: %.2e (target %.0e)@." (loss total)
    target;
  pf "simulated loss at 0.8x the predicted rate: %.2e@." (loss (0.8 *. total));
  (* Chernoff comparison of the two SMG components (formulas (10)/(11)):
     shared-buffer multiplexing averages subchain means; RCBR averages
     subchain equivalent bandwidths. *)
  let marginal_means =
    Array.init (Array.length means) (fun k -> (occ.(k), means.(k)))
  in
  let marginal_eb = Array.init (Array.length per) (fun k -> (occ.(k), per.(k))) in
  pf "@.capacity per stream for overflow target %.0e (Chernoff):@." target;
  pf "%8s %16s %16s %12s@." "n" "shared (eq.10)" "RCBR (eq.11)" "ratio";
  (* One warm-started solver per marginal, reused across the n sweep
     (bit-identical to the cold per-query path). *)
  let solver_means = Chernoff.Solver.of_marginal marginal_means in
  let solver_eb = Chernoff.Solver.of_marginal marginal_eb in
  List.iter
    (fun n ->
      let cs = Chernoff.Solver.capacity_for_target solver_means ~n ~target in
      let cr = Chernoff.Solver.capacity_for_target solver_eb ~n ~target in
      pf "%8d %16.3f %16.3f %12.3f@." n cs cr (cr /. cs))
    [ 10; 100; 1000 ];
  pf "@.paper: RCBR gives up only the fast time-scale component of the gain;@.";
  pf "the ratio stays close to 1 when subchain fluctuations are small.@."

(* --- Micro-benchmarks (Bechamel) ------------------------------------ *)

let micro ctx =
  section "Micro-benchmarks (Bechamel) + trellis complexity (Section IV-A)";
  let trace = Synthetic.star_wars ~frames:2_000 ~seed:5 () in
  (* Complexity vs number of levels: the paper reports 20 min at M=20 and
     over a day at M=100 on an UltraSparc 1 for the full trace. *)
  pf "trellis cost vs number of rate levels (2 000-frame trace, alpha = 2e5):@.";
  pf "%8s %12s %14s %12s@." "levels" "nodes" "peak frontier" "time (s)";
  let level_rows = ref [] and checksum = ref 0 in
  List.iter
    (fun m ->
      let needed =
        Sigma_rho.min_rate ~trace ~buffer:300_000. ~target_loss:0.
      in
      let grid =
        Rate_grid.covering
          (Rate_grid.uniform ~lo:48_000. ~hi:2_400_000. ~levels:m)
          ~peak:(needed *. 1.0001)
      in
      let params =
        {
          Optimal.grid;
          reneg_cost = 2e5;
          bandwidth_cost = 1.;
          constraint_ = Optimal.Buffer_bound 300_000.;
        }
      in
      let t0 = Unix.gettimeofday () in
      let _, st = Optimal.solve_with_stats params trace in
      let wall = Unix.gettimeofday () -. t0 in
      level_rows :=
        Json.Obj
          [
            ("levels", Json.Int m);
            ("expanded_nodes", Json.Int st.Optimal.expanded);
            ("max_frontier", Json.Int st.Optimal.max_frontier);
            ("pruned_by_lemma", Json.Int st.Optimal.pruned_by_lemma);
            ("pruned_by_cap", Json.Int st.Optimal.pruned_by_cap);
            ("wall_s", Json.Float wall);
          ]
        :: !level_rows;
      (* The node counts join the [result_checksum] identity field, so
         a change in what the trellis expands or prunes trips
         compare.exe. *)
      checksum :=
        List.fold_left
          (fun h v -> ((h * 1_000_003) + v) land max_int)
          !checksum
          [
            m;
            st.Optimal.expanded;
            st.Optimal.max_frontier;
            st.Optimal.pruned_by_lemma;
          ];
      pf "%8d %12d %14d %12.2f   (pruned %d lemma + %d cap)@." m
        st.Optimal.expanded st.Optimal.max_frontier wall
        st.Optimal.pruned_by_lemma st.Optimal.pruned_by_cap)
    (if ctx.smoke then [ 5; 10; 20 ] else [ 5; 10; 20; 40 ]);
  emit ctx "levels_sweep" (Json.List (List.rev !level_rows));
  emit ctx "result_checksum" (Json.Int !checksum);
  (* Lemma 1 ablation. *)
  pf "@.Lemma 1 cross-level pruning ablation (20 levels):@.";
  let params = Optimal.default_params ~cost_ratio:2e5 trace in
  List.iter
    (fun (label, lemma_pruning) ->
      let t0 = Unix.gettimeofday () in
      let _, st = Optimal.solve_with_stats ~lemma_pruning params trace in
      pf "  %-22s nodes %9d, peak frontier %6d, %.2f s@." label
        st.Optimal.expanded st.Optimal.max_frontier
        (Unix.gettimeofday () -. t0))
    [ ("with Lemma 1", true); ("per-level Pareto only", false) ];
  (* Bechamel micro-benchmarks of the hot kernels. *)
  let open Bechamel in
  let open Bechamel.Toolkit in
  let marginal = Schedule.marginal (Online.schedule Online.default_params trace) in
  let tests =
    Test.make_grouped ~name:"rcbr"
      [
        Test.make ~name:"synthetic-2k-frames"
          (Staged.stage (fun () ->
               ignore (Synthetic.star_wars ~frames:2_000 ~seed:1 ())));
        Test.make ~name:"fluid-queue-2k-slots"
          (Staged.stage (fun () ->
               ignore (Fluid.run_constant ~capacity:3e5 ~rate:4e5 trace)));
        Test.make ~name:"online-heuristic-2k"
          (Staged.stage (fun () ->
               ignore (Online.run Online.default_params trace)));
        (let short = Trace.sub trace ~pos:0 ~len:500 in
         let p = Optimal.default_params ~cost_ratio:2e5 short in
         Test.make ~name:"trellis-m20-500"
           (Staged.stage (fun () -> ignore (Optimal.solve p short))));
        Test.make ~name:"chernoff-max-calls"
          (Staged.stage (fun () ->
               ignore (Chernoff.max_calls marginal ~capacity:6e6 ~target:1e-3)));
        (let solver = Chernoff.Solver.of_marginal marginal in
         Test.make ~name:"chernoff-max-calls-warm"
           (Staged.stage (fun () ->
                ignore
                  (Chernoff.Solver.max_calls solver ~capacity:6e6 ~target:1e-3))));
        Test.make ~name:"equivalent-bandwidth"
          (Staged.stage (fun () ->
               ignore
                 (Eb.multiscale_equivalent_bandwidth (Multiscale.fig4_example ())
                    ~buffer:30. ~target_loss:1e-3)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  pf "@.kernel timings (OLS estimate of one run):@.";
  let rows =
    (* Name-sorted traversal; same order the old fold-then-sort gave. *)
    Tables.sorted_bindings results
    |> List.map (fun (name, est) ->
           match Analyze.OLS.estimates est with
           | Some [ ns ] -> (name, ns)
           | _ -> (name, nan))
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then pf "  %-32s (no estimate)@." name
      else if ns > 1e6 then pf "  %-32s %12.3f ms@." name (ns /. 1e6)
      else pf "  %-32s %12.1f us@." name (ns /. 1e3))
    rows;
  emit ctx "bechamel_run_ns"
    (Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) rows))

(* --- Extension experiments ------------------------------------------ *)

(* Better causal predictors -- the future-work item of Section IV-B. *)
let predictors ctx =
  section "Predictors -- GOP-aware and adaptive prediction (Section IV-B)";
  pf "paper: \"the prediction quality could be improved by taking into@.";
  pf "account the inherent frame structure of MPEG encoded video\".@.@.";
  let variants =
    [
      ("AR(1) (paper)", fun ~initial -> Rcbr_core.Predictor.ar1 ~eta:0.9 ~initial);
      ( "GOP-aware AR(1)",
        fun ~initial ->
          Rcbr_core.Predictor.gop_aware ~gop_length:12 ~eta:0.9 ~initial );
      ( "NLMS (12 taps)",
        fun ~initial -> Rcbr_core.Predictor.nlms ~taps:12 ~mu:0.3 ~initial );
      ( "peak reservation",
        fun ~initial:_ -> Rcbr_core.Predictor.constant (Trace.peak_rate ctx.trace) );
    ]
  in
  pf "%20s %10s %14s %12s %14s@." "predictor" "renegs" "interval (s)"
    "efficiency" "backlog (kb)";
  List.iter
    (fun (name, predictor) ->
      let o = Online.run_custom Online.default_params ~predictor ctx.trace in
      pf "%20s %10d %14.2f %11.2f%% %14.1f@." name
        (Schedule.n_renegotiations o.Online.schedule)
        (Schedule.mean_renegotiation_interval o.Online.schedule)
        (100. *. Schedule.bandwidth_efficiency o.Online.schedule ~trace:ctx.trace)
        (o.Online.max_backlog /. 1e3))
    variants

(* Smoothing baseline -- the related-work comparison of Sections VII-VIII. *)
let smoothing ctx =
  section "Smoothing vs renegotiation (related work, Sections VII-VIII)";
  pf "Optimal smoothing minimizes the peak rate; the paper's optimizer@.";
  pf "minimizes K*renegotiations + c*reserved bits.  Same buffer (300 kb):@.@.";
  let smooth = Rcbr_core.Smoothing.schedule ~buffer:ctx.buffer ctx.trace in
  let describe name s =
    pf "%16s: %5d changes, every %6.1f s, peak %.2fx mean, eff %6.2f%%, cost %.3e@."
      name (Schedule.n_renegotiations s)
      (Schedule.mean_renegotiation_interval s)
      (Schedule.peak_rate s /. ctx.mean)
      (100. *. Schedule.bandwidth_efficiency s ~trace:ctx.trace)
      (Schedule.cost s ~reneg_cost:3e5 ~bandwidth_cost:1.)
  in
  describe "smoothing" smooth;
  describe "RCBR optimal" ctx.schedule;
  pf "@.Smoothing spends many more rate changes to shave the peak; under the@.";
  pf "paper's pricing the renegotiation-aware optimum is strictly cheaper.@."

(* Renegotiation-failure policies -- Section III-A-1. *)
let adaptation ctx =
  section "Renegotiation-failure handling (Section III-A-1)";
  pf "A congested network grants each rate increase with probability 0.7;@.";
  pf "four source policies (300 kb buffer):@.@.";
  pf "%16s %10s %10s %10s %12s %14s@." "policy" "attempts" "failures"
    "loss" "quality" "reserved/mean";
  List.iter
    (fun (name, policy) ->
      let rng = Rng.create 99 in
      let grant = Rcbr_core.Adaptation.grant_with_probability rng 0.7 in
      let r =
        Rcbr_core.Adaptation.simulate ~policy ~grant ~buffer:ctx.buffer
          ~trace:ctx.trace ctx.schedule
      in
      pf "%16s %10d %10d %10.2e %11.1f%% %14.2f@." name r.Rcbr_core.Adaptation.attempts
        r.Rcbr_core.Adaptation.failures
        (r.Rcbr_core.Adaptation.bits_lost /. r.Rcbr_core.Adaptation.bits_offered)
        (100. *. r.Rcbr_core.Adaptation.quality)
        (r.Rcbr_core.Adaptation.mean_reserved /. ctx.mean))
    [
      ("settle", Rcbr_core.Adaptation.Settle);
      ("retry (1 s)", Rcbr_core.Adaptation.Retry 24);
      ("requantize 0.6", Rcbr_core.Adaptation.Requantize 0.6);
      ("reserve peak", Rcbr_core.Adaptation.Reserve_peak);
    ];
  pf "@.paper: \"some users can choose to see few or no renegotiation failures,@.";
  pf "while others might tradeoff ... for a lower cost of service.\"@."

(* Cell-level switch buffering -- Section III's "minimal buffering"
   claim, quantified. *)
let cells ctx =
  section "Cell-level switch buffering: RCBR-shaped vs unshaped (Section III)";
  pf "paper: \"because all traffic entering the network is CBR, RCBR requires@.";
  pf "minimal buffering and scheduling support in switches\".@.@.";
  let short = Trace.sub ctx.trace ~pos:0 ~len:(min 7200 ctx.frames) in
  let sched =
    Optimal.solve (Optimal.default_params ~cost_ratio:3e5 short) short
  in
  let n = 10 in
  (* Admission control keeps the aggregate reserved rate below the port
     capacity, so size the port against the aggregate demand peak: the
     utilizations below are peak-aggregate utilizations. *)
  let shifted = List.init n (fun i -> Schedule.shift sched ~slots:(i * 997)) in
  let agg_peak =
    let rates = List.map Schedule.to_rates shifted in
    let slots = Schedule.n_slots sched in
    let peak = ref 0. in
    for t = 0 to slots - 1 do
      let total = List.fold_left (fun acc r -> acc +. r.(t)) 0. rates in
      if total > !peak then peak := total
    done;
    !peak
  in
  pf "%12s %16s %10s %10s %12s %14s@." "utilization" "shaping" "max q"
    "p99 q" "mean q" "max delay";
  List.iter
    (fun util ->
      let port = agg_peak /. util in
      let paced =
        List.mapi
          (fun i s ->
            Rcbr_atm.Cell_mux.Paced
              { schedule = s; offset = float_of_int i *. 0.0011 })
          shifted
      in
      let burst =
        List.init n (fun i ->
            Rcbr_atm.Cell_mux.Frame_burst
              { trace = Trace.shift short (i * 997); line_rate = 155e6 })
      in
      List.iter
        (fun (label, sources) ->
          let s =
            Rcbr_atm.Cell_mux.simulate ~port_rate:port ~sources ~duration:120. ()
          in
          pf "%12.2f %16s %10d %10d %12.2f %11.2f ms@." util label
            s.Rcbr_atm.Cell_mux.max_queue s.Rcbr_atm.Cell_mux.p99_queue
            s.Rcbr_atm.Cell_mux.mean_queue
            (s.Rcbr_atm.Cell_mux.max_delay *. 1e3))
        [ ("RCBR (paced)", paced); ("VBR (bursts)", burst) ])
    [ 0.7; 0.9; 0.98 ]

(* Multi-hop scaling -- Section III-C. *)
let multihop ctx =
  section "Multi-hop renegotiation failure (Section III-C)";
  pf "paper: \"the probability of renegotiation failure is likely to increase@.";
  pf "since each hop is a possible point of failure\".@.@.";
  pf "%8s %18s %18s %14s@." "hops" "transit denials" "local denials" "hop util";
  let capacity = 10. *. ctx.mean in
  let base topology =
    {
      Rcbr_sim.Multihop.schedule = ctx.schedule;
      topology;
      transit_calls = 3;
      local_calls_per_link = 5;
      horizon = 4. *. Schedule.duration ctx.schedule;
      seed = 5;
      balance = false;
      service = Rcbr_policy.Service_model.Renegotiate;
    }
  in
  let hop_counts = [ 1; 2; 4; 8 ] in
  (* Hop-sweep batch: every hop count is an independent seeded
     simulation, fanned out over the pool. *)
  let sweep =
    Rcbr_sim.Multihop.run_many ?pool:ctx.pool
      (List.map
         (fun hops -> base (Rcbr_net.Topology.linear ~hops ~capacity))
         hop_counts)
  in
  List.iter2
    (fun hops m ->
      let local =
        if m.Rcbr_sim.Multihop.local_attempts = 0 then 0.
        else
          float_of_int m.Rcbr_sim.Multihop.local_denials
          /. float_of_int m.Rcbr_sim.Multihop.local_attempts
      in
      pf "%8d %18.4f %18.4f %14.3f@." hops
        (Rcbr_sim.Multihop.denial_fraction m)
        local m.Rcbr_sim.Multihop.mean_hop_utilization)
    hop_counts sweep;
  (* The paper's conjecture: alternate routes + call-level load
     balancing compensate.  Same 8-hop network, 4 parallel paths, 12
     transit calls spread across them. *)
  pf "@.8 hops, 4 alternate routes, 12 transit calls:@.";
  let balanced =
    Rcbr_sim.Multihop.run_many ?pool:ctx.pool
      (List.map
         (fun balance ->
           {
             (base
                (Rcbr_net.Topology.parallel_routes ~routes:4 ~hops:8 ~capacity))
             with
             Rcbr_sim.Multihop.transit_calls = 12;
             balance;
           })
         [ false; true ])
  in
  List.iter2
    (fun balance m ->
      pf "  %-22s transit denial %.4f, hop util %.3f@."
        (if balance then "least-loaded route:" else "random route:")
        (Rcbr_sim.Multihop.denial_fraction m)
        m.Rcbr_sim.Multihop.mean_hop_utilization)
    [ false; true ] balanced;
  (* Every row's counters and utilization bits, hop sweep then the
     balanced pair, fold into the [result_checksum] identity field. *)
  let checksum =
    List.fold_left
      (fun h (m : Rcbr_sim.Multihop.metrics) ->
        let h =
          List.fold_left mix h
            [
              m.transit_attempts;
              m.transit_denials;
              m.local_attempts;
              m.local_denials;
              m.downgrades;
            ]
        in
        mix_float h m.mean_hop_utilization)
      0 (sweep @ balanced)
  in
  emit ctx "result_checksum" (Json.Int checksum)

(* Mesh topology -- what the Section III-C hop sweep could not
   express: routes of different lengths sharing a bottleneck link. *)
let mesh ctx =
  section "Mesh topology: heterogeneous routes over shared links (lib/net)";
  pf "A 1-hop direct path, a 2-hop detour and a 3-hop detour between the@.";
  pf "same endpoints; both detours cross the same final link.  Transit@.";
  pf "calls are balanced across the three routes, each link carries its@.";
  pf "own local traffic, and the faulty plane loses 20%% of signalling@.";
  pf "cells while the shared link crashes mid-run.@.@.";
  let module MH = Rcbr_sim.Multihop in
  let module NSession = Rcbr_net.Session in
  let module Topology = Rcbr_net.Topology in
  let capacity = 10. *. ctx.mean in
  let link src dst = { Topology.src; dst; capacity } in
  let topology =
    Topology.make ~n_nodes:4
      ~links:[| link 0 1; link 0 2; link 2 1; link 0 3; link 3 2 |]
      ~routes:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 2 |] |]
  in
  let nc =
    {
      MH.schedule = ctx.schedule;
      topology;
      transit_calls = 6;
      local_calls_per_link = 5;
      horizon = 4. *. Schedule.duration ctx.schedule;
      seed = 5;
      balance = true;
      service = Rcbr_policy.Service_model.Renegotiate;
    }
  in
  let clean = { NSession.no_faults with NSession.check_invariants = true } in
  let faulty =
    {
      NSession.no_faults with
      NSession.rm_drop = 0.2;
      retx_timeout = 0.05;
      crashes = [ (2, 100., 400.) ];
      fault_seed = 99;
      check_invariants = true;
    }
  in
  let runs = Pool.map ?pool:ctx.pool (MH.run_net nc) [ clean; faulty ] in
  pf "%10s %16s %16s %10s %8s %8s %6s@." "plane" "transit denials"
    "local denials" "hop util" "lost" "aband" "inv";
  (* Every emitted counter also folds, in emit order, into the
     [result_checksum] identity field compare.exe gates. *)
  let checksum = ref 0 in
  let emit_int key v =
    emit ctx key (Json.Int v);
    checksum := (!checksum lxor v) * 0x100000001b3 land max_int
  in
  List.iter2
    (fun label ((m : MH.metrics), (f : MH.fault_metrics)) ->
      let local =
        if m.MH.local_attempts = 0 then 0.
        else
          float_of_int m.MH.local_denials /. float_of_int m.MH.local_attempts
      in
      pf "%10s %16.4f %16.4f %10.3f %8d %8d %6d@." label
        (MH.denial_fraction m) local m.MH.mean_hop_utilization f.MH.rm_lost
        f.MH.abandoned f.MH.invariant_failures;
      emit_int (label ^ "_transit_attempts") m.MH.transit_attempts;
      emit_int (label ^ "_transit_denials") m.MH.transit_denials;
      emit_int (label ^ "_local_attempts") m.MH.local_attempts;
      emit_int (label ^ "_local_denials") m.MH.local_denials;
      emit_int (label ^ "_rm_lost") f.MH.rm_lost;
      emit_int (label ^ "_invariant_failures") f.MH.invariant_failures)
    [ "clean"; "faulty" ] runs;
  emit ctx "result_checksum" (Json.Int !checksum)

(* Online renegotiation latency -- the result Section III-C says the
   paper does not yet have. *)
let latency ctx =
  section "Signaling latency vs online RCBR (Section III-C, open question)";
  pf "paper: \"We do not yet have analytical expressions or simulation@.";
  pf "results studying the effect of renegotiation delay on RCBR@.";
  pf "performance.\"  Here it is: the AR(1) heuristic with the request@.";
  pf "taking effect only after a signaling round-trip.@.@.";
  pf "%14s %10s %14s %12s %14s@." "delay" "renegs" "interval (s)"
    "efficiency" "backlog (kb)";
  List.iter
    (fun delay_slots ->
      let o = Online.run_delayed Online.default_params ~delay_slots ctx.trace in
      pf "%11.0f ms %10d %14.2f %11.2f%% %14.1f@."
        (float_of_int delay_slots /. Trace.fps ctx.trace *. 1e3)
        (Schedule.n_renegotiations o.Online.schedule)
        (Schedule.mean_renegotiation_interval o.Online.schedule)
        (100. *. Schedule.bandwidth_efficiency o.Online.schedule ~trace:ctx.trace)
        (o.Online.max_backlog /. 1e3))
    [ 0; 2; 6; 12; 24; 48 ];
  (* Compensation: a larger safety margin (coarser up-quantization)
     contains the backlog at the price of efficiency. *)
  pf "@.compensating 1 s of delay with extra bandwidth margin:@.";
  pf "%14s %12s %14s@." "granularity" "efficiency" "backlog (kb)";
  List.iter
    (fun granularity ->
      let p = { Online.default_params with Online.granularity } in
      let o = Online.run_delayed p ~delay_slots:24 ctx.trace in
      pf "%11.0f kb %11.2f%% %14.1f@." (granularity /. 1e3)
        (100. *. Schedule.bandwidth_efficiency o.Online.schedule ~trace:ctx.trace)
        (o.Online.max_backlog /. 1e3))
    [ 100e3; 200e3; 400e3 ]

(* One-shot descriptors -- the four problems of Section II, quantified. *)
let descriptors ctx =
  section "One-shot traffic descriptors: the four problems (Section II)";
  pf "A static (sigma, rho) leaky bucket for this source either wastes@.";
  pf "bandwidth, loses data, needs huge buffers, or forfeits protection:@.@.";
  let mean = ctx.mean in
  pf "%16s %16s %20s@." "token rate" "bucket depth" "consequence";
  List.iter
    (fun (mult, label) ->
      let rate = mult *. mean in
      let depth = Rcbr_traffic.Token_bucket.min_depth_for_trace ctx.trace ~rate in
      pf "%13.2fx %13.1f Mb %20s@." mult (depth /. 1e6) label)
    [
      (1.05, "huge bucket/buffer");
      (1.5, "large bucket");
      (2.5, "moderate bucket");
      (4., "low SMG (near peak)");
    ];
  let bucket = Rcbr_traffic.Token_bucket.create ~rate:(1.05 *. mean) ~depth:1e6 in
  let conforming =
    Rcbr_traffic.Token_bucket.conforming_fraction bucket ~trace:ctx.trace
  in
  pf "@.tight bucket instead (1.05x mean, 1 Mb): only %.1f%% of bits conform --@."
    (100. *. conforming);
  pf "the rest is dropped at the policer or needs shared network buffers@.";
  pf "(\"loss of protection\", cf. the protection experiment).  RCBR's@.";
  pf "renegotiated descriptor carries the same source at %.2fx mean with a@."
    (Schedule.mean_rate ctx.schedule /. mean);
  pf "300 kb buffer and zero loss.@."

(* Advance reservations -- Section III-A-2. *)
let advance ctx =
  section "Advance reservations for stored video (Section III-A-2)";
  pf "Booking whole schedules on a shared link ahead of time: renegotiation@.";
  pf "failures become up-front blocking.  Streams request random start@.";
  pf "times over one schedule duration:@.@.";
  let rng = Rng.create 4 in
  let duration = Schedule.duration ctx.schedule in
  pf "%18s %12s %14s@." "link capacity" "admitted" "booked share";
  List.iter
    (fun mult ->
      let cal = Rcbr_signal.Advance.create ~capacity:(mult *. ctx.mean) in
      let admitted = ref 0 in
      let requests = 3 * int_of_float mult in
      for _ = 1 to requests do
        let start = Rng.float rng *. duration in
        if Rcbr_signal.Advance.book_schedule cal ~start ctx.schedule then
          incr admitted
      done;
      let share =
        Rcbr_signal.Advance.booked_area cal ~from_:0. ~until:(2. *. duration)
        /. (mult *. ctx.mean *. 2. *. duration)
      in
      pf "%15.0fx %9d/%2d %13.1f%%@." mult !admitted requests (100. *. share))
    [ 4.; 8.; 16. ];
  pf "@.Every admitted stream then plays with zero renegotiation failures.@."

(* Protection: FIFO vs fair queueing vs policing -- Section II's "loss
   of protection" and Section VI's "policing is reduced to enforcing
   peak rate". *)
let protection ctx =
  section "Traffic protection: FIFO vs fair queueing vs peak policing (Secs II/VI)";
  pf "Nine well-behaved 400 kb/s CBR sources share a port with one source@.";
  pf "that reserved 400 kb/s but blasts VBR frame bursts at link speed.@.@.";
  let good_rate = 400_000. in
  let n_good = 9 in
  let frames = min 2880 ctx.frames in
  let good i =
    Rcbr_atm.Cell_mux.Paced
      {
        schedule = Schedule.constant ~fps:24. ~n_slots:frames good_rate;
        offset = float_of_int i *. 0.0013;
      }
  in
  let bad_trace = Trace.sub ctx.trace ~pos:0 ~len:frames in
  let bad = Rcbr_atm.Cell_mux.Frame_burst { trace = bad_trace; line_rate = 155e6 } in
  let sources = List.init n_good good @ [ bad ] in
  let port = 12. *. good_rate in
  let duration = float_of_int frames /. 24. in
  let row label ?policer discipline =
    let r =
      Rcbr_atm.Scheduler.simulate ~discipline ~port_rate:port ?policer ~sources
        ~duration ()
    in
    let g = r.(0) and b = r.(n_good) in
    pf "%24s %12.3f %12.3f %14.3f %10d@." label
      (g.Rcbr_atm.Scheduler.mean_delay *. 1e3)
      (g.Rcbr_atm.Scheduler.max_delay *. 1e3)
      (b.Rcbr_atm.Scheduler.mean_delay *. 1e3)
      b.Rcbr_atm.Scheduler.policed
  in
  pf "%24s %12s %12s %14s %10s@." "regime" "good mean" "good max"
    "misbehaver" "policed";
  pf "%24s %12s %12s %14s %10s@." "" "(ms)" "(ms)" "mean (ms)" "cells";
  row "FIFO, no policing" Rcbr_atm.Scheduler.Fifo;
  row "SCFQ fair queueing" Rcbr_atm.Scheduler.Scfq;
  let policer vc =
    if vc = n_good then Some (Rcbr_atm.Gcra.create ~rate:good_rate ())
    else None
  in
  row "FIFO + GCRA policing" ~policer Rcbr_atm.Scheduler.Fifo;
  pf "@.RCBR's position: shaped traffic + peak policing protects as well as@.";
  pf "per-connection fair queueing, with a trivial FIFO scheduler.@."

(* User interactivity -- the Section VI caveat about a-priori descriptors. *)
let interactive ctx =
  section "User interactivity vs a-priori descriptors (Section VI)";
  pf "paper: \"even for stored video ... user interactivity (fast forward,@.";
  pf "pause, etc.) reduces the accuracy of this descriptor\".@.@.";
  let capacity = 16. *. ctx.mean in
  let arrival_rate =
    1.4 *. capacity
    /. (Schedule.mean_rate ctx.schedule *. Schedule.duration ctx.schedule)
  in
  let cfg =
    Mbac.default_config ~schedule:ctx.schedule ~capacity ~arrival_rate
      ~target:1e-3 ~seed:31
  in
  let params =
    {
      Rcbr_sim.Interactive.default_params with
      Rcbr_sim.Interactive.pause_probability = 0.03;
      jump_probability = 0.05;
      scan_rate_multiplier = 2.5;
      mean_scan_s = 10.;
    }
  in
  let make name controller =
    let clean = Mbac.run cfg ~controller:(controller ()) in
    let inter =
      Mbac.run_with_pieces cfg
        ~make_pieces:(fun rng ->
          Rcbr_sim.Interactive.pieces rng params ctx.schedule)
        ~controller:(controller ())
    in
    pf "%12s %14.2e %14.2e %12.3f %12.3f@." name
      clean.Mbac.failure_probability inter.Mbac.failure_probability
      clean.Mbac.utilization inter.Mbac.utilization
  in
  pf "%12s %14s %14s %12s %12s@." "controller" "fail(clean)" "fail(inter)"
    "util(clean)" "util(inter)";
  make "perfect" (fun () ->
      Controller.perfect ~descriptor:(Descriptor.of_schedule ctx.schedule)
        ~capacity ~target:1e-3);
  make "memoryless" (fun () -> Controller.memoryless ~capacity ~target:1e-3);
  make "memory" (fun () -> Controller.memory ~capacity ~target:1e-3)

(* Heterogeneous call mix -- MBAC "learns the statistics of existing
   calls" (Section VI) with no per-class configuration. *)
let mixture ctx =
  section "Heterogeneous call mix: movies + low-rate streams (Section VI)";
  pf "Half the calls are the movie; half are a 150 kb/s news-style stream.@.";
  pf "MBAC needs no class knowledge; perfect knowledge gets the true@.";
  pf "mixture marginal.@.@.";
  let news_params =
    { Synthetic.star_wars_params with Synthetic.mean_rate_bps = 150_000. }
  in
  let news_trace =
    Synthetic.generate ~params:news_params ~seed:77 ~frames:ctx.frames ()
  in
  let news_sched, _ =
    Optimal.solve_with_stats ~frontier_cap:100
      (Optimal.default_params ~cost_ratio:3e5 news_trace)
      news_trace
  in
  let mixture_marginal =
    (* 50/50 mixture of the two per-call marginals. *)
    let table = Hashtbl.create 32 in
    let fold weight m =
      Array.iter
        (fun (p, r) ->
          Hashtbl.replace table r
            (Option.value ~default:0. (Hashtbl.find_opt table r)
            +. (weight *. p)))
        m
    in
    fold 0.5 (Schedule.marginal ctx.schedule);
    fold 0.5 (Schedule.marginal news_sched);
    Tables.sorted_bindings ~compare:Float.compare table
    |> List.map (fun (r, p) -> (p, r))
    |> Array.of_list
  in
  let capacity = 16. *. ctx.mean in
  let mix_mean = Chernoff.mean mixture_marginal in
  let arrival_rate =
    1.4 *. capacity /. (mix_mean *. Schedule.duration ctx.schedule)
  in
  let cfg =
    Mbac.default_config ~schedule:ctx.schedule ~capacity ~arrival_rate
      ~target:1e-3 ~seed:41
  in
  let n_slots = Schedule.n_slots ctx.schedule in
  let make_pieces rng =
    let sched = if Rng.bool rng then ctx.schedule else news_sched in
    Mbac.shifted_pieces sched ~shift:(Rng.int rng n_slots)
  in
  let perfect_mixture () =
    let levels = Array.map snd mixture_marginal in
    let fractions = Array.map fst mixture_marginal in
    Controller.perfect
      ~descriptor:(Descriptor.create ~levels ~fractions)
      ~capacity ~target:1e-3
  in
  pf "%12s %14s %14s %10s %8s@." "controller" "failure" "utilization"
    "blocking" "calls";
  List.iter
    (fun (name, make) ->
      let m = Mbac.run_with_pieces cfg ~make_pieces ~controller:(make ()) in
      pf "%12s %14.2e %14.3f %10.3f %8.1f@." name m.Mbac.failure_probability
        m.Mbac.utilization m.Mbac.call_blocking m.Mbac.mean_calls_in_system)
    [
      ("perfect", perfect_mixture);
      ("memoryless", fun () -> Controller.memoryless ~capacity ~target:1e-3);
      ("memory", fun () -> Controller.memory ~capacity ~target:1e-3);
    ]

(* --- Megacall: the million-call engine ------------------------------ *)

(* Peak resident set from /proc/self/status (VmHWM, kB).  Linux-only;
   [None] elsewhere, and the BENCH field is simply absent. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq |> int_of_string_opt
        | _ -> scan ()
      in
      scan ()

(* 2^20 concurrent calls on sharded grid meshes: the SoA session store,
   the event heap driven with integer handles, batched admission and
   link-sharded Pool runs, all at once (DESIGN.md §12).
   The outcome hash is bit-identical for every -j; CI additionally
   diffs the rcbr_megacall CLI at -j1 vs -j4. *)
let megacall ctx =
  section "Megacall -- 10^6 concurrent calls (SoA store + wheel + batching)";
  let module Megacall = Rcbr_sim.Megacall in
  let concurrent = 1 lsl 20 in
  let cfg = Megacall.default ~concurrent () in
  pf "%d shards x (%dx%d mesh, %d calls each), %d rate changes per call@."
    cfg.Megacall.shards cfg.Megacall.rows cfg.Megacall.cols
    cfg.Megacall.calls_per_shard cfg.Megacall.pieces_per_call;
  let t0 = Unix.gettimeofday () in
  let m = Megacall.run ?pool:ctx.pool cfg in
  let wall = Unix.gettimeofday () -. t0 in
  pf "arrivals %d, admitted %d, denied %d, departures %d@."
    m.Megacall.total_arrivals m.Megacall.total_admitted
    m.Megacall.total_denied m.Megacall.total_departures;
  pf "concurrent %d (peak %d), %d wheel events@." m.Megacall.concurrent_calls
    m.Megacall.peak_concurrent m.Megacall.total_events;
  pf "batch hits %d, audit violations %d@." m.Megacall.total_batch_hits
    m.Megacall.audit_violations;
  pf "outcome hash %d (identical for every -j)@." m.Megacall.outcome_hash;
  pf "wall %.3f s: %.0f calls/s, %.0f events/s@." wall
    (float_of_int m.Megacall.total_admitted /. wall)
    (float_of_int m.Megacall.total_events /. wall);
  (match peak_rss_kb () with
  | Some kb ->
      pf "peak RSS %.1f MB (%.0f bytes/concurrent call, process-wide)@."
        (float_of_int kb /. 1024.)
        (float_of_int kb *. 1024. /. float_of_int m.Megacall.concurrent_calls);
      emit ctx "peak_rss_kb" (Json.Int kb)
  | None -> pf "peak RSS unavailable (no /proc/self/status)@.");
  emit ctx "concurrent_calls" (Json.Int m.Megacall.concurrent_calls);
  emit ctx "peak_concurrent" (Json.Int m.Megacall.peak_concurrent);
  emit ctx "decisions" (Json.Int m.Megacall.total_arrivals);
  emit ctx "result_checksum" (Json.Int m.Megacall.outcome_hash);
  emit ctx "decision_hashes"
    (Json.List
       (Array.to_list
          (Array.map
             (fun s -> Json.Int s.Megacall.decision_hash)
             m.Megacall.shards_)));
  emit ctx "audit_violations" (Json.Int m.Megacall.audit_violations);
  emit ctx "events" (Json.Int m.Megacall.total_events);
  emit ctx "batch_hits" (Json.Int m.Megacall.total_batch_hits);
  emit ctx "calls_per_s"
    (Json.Float (float_of_int m.Megacall.total_admitted /. wall));
  emit ctx "events_per_s"
    (Json.Float (float_of_int m.Megacall.total_events /. wall))

(* --- Beam: beam-searched trellis on fine rate grids (DESIGN.md #13) -- *)

let beam_experiment ctx =
  section "Beam -- beam-searched trellis on 100+-level grids (DESIGN.md par. 13)";
  let alpha = 2e5 in
  let len = min 600 ctx.frames in
  let trace = Trace.sub ctx.trace ~pos:0 ~len in
  let ms = if ctx.smoke then [ 50; 200 ] else [ 50; 100; 200 ] in
  let widths = [ 2; 4; 8; 16; 32 ] in
  pf "%d-slot trace, alpha = %.0e, trace prior at the default weight@." len
    alpha;
  (* One independent sweep point per (levels, solver) pair; the exact
     reference at each grid size is just another point.  Pool.map keeps
     list order, so the results -- and the checksum list below -- are
     byte-identical for every -j. *)
  let points =
    List.concat_map (fun m -> `Exact m :: List.map (fun w -> `Beam (m, w)) widths) ms
  in
  let solve_point point =
    let m = match point with `Exact m | `Beam (m, _) -> m in
    let p =
      Optimal.default_params ~levels:m ~buffer:ctx.buffer ~cost_ratio:alpha
        trace
    in
    let t0 = Unix.gettimeofday () in
    match point with
    | `Exact _ ->
        let s, st = Optimal.solve_with_stats p trace in
        (Unix.gettimeofday () -. t0, s, st.Optimal.expanded, 0, 0)
    | `Beam (_, w) ->
        let prior = Beam.of_trace ~grid:p.Optimal.grid trace in
        let s, st = Beam.solve_with_stats ~beam_width:w ~prior p trace in
        ( Unix.gettimeofday () -. t0,
          s,
          st.Beam.base.Optimal.expanded,
          st.Beam.dropped_by_beam,
          st.Beam.prior_hits )
  in
  let results = Pool.map ?pool:ctx.pool solve_point points in
  let cost s = Schedule.cost s ~reneg_cost:alpha ~bandwidth_cost:1. in
  (* Exact wall/cost per grid size, for speedup and gap columns. *)
  let exact =
    List.filter_map
      (fun (pt, (wall, s, _, _, _)) ->
        match pt with `Exact m -> Some (m, (wall, cost s)) | `Beam _ -> None)
      (List.combine points results)
  in
  pf "@.%8s %7s %10s %12s %10s %9s %8s@." "levels" "width" "wall (s)" "nodes"
    "cost gap" "speedup" "renegs";
  let rows = ref [] and checksums = ref [] in
  List.iter2
    (fun pt (wall, s, expanded, dropped, prior_hits) ->
      let m, width = match pt with `Exact m -> (m, 0) | `Beam (m, w) -> (m, w) in
      let exact_wall, exact_cost = List.assoc m exact in
      let c = cost s in
      let gap = (c -. exact_cost) /. exact_cost in
      let speedup = exact_wall /. wall in
      (match pt with
      | `Exact _ ->
          pf "%8d %7s %10.3f %12d %10s %9s %8d@." m "exact" wall expanded "-"
            "-"
            (Schedule.n_renegotiations s)
      | `Beam _ ->
          pf "%8d %7d %10.3f %12d %9.2f%% %8.1fx %8d@." m width wall expanded
            (100. *. gap) speedup
            (Schedule.n_renegotiations s));
      checksums := Json.Int (schedule_checksum s) :: !checksums;
      rows :=
        Json.Obj
          [
            ("levels", Json.Int m);
            ("width", Json.Int width);
            ("wall_s", Json.Float wall);
            ("expanded_nodes", Json.Int expanded);
            ("dropped_by_beam", Json.Int dropped);
            ("prior_hits", Json.Int prior_hits);
            ("cost", Json.Float c);
            ("gap_pct", Json.Float (100. *. gap));
            ("speedup", Json.Float speedup);
            ("renegotiations", Json.Int (Schedule.n_renegotiations s));
          ]
        :: !rows)
    points results;
  (* Receding-horizon controller (Online.run_receding) vs the paper's
     AR(1) + threshold heuristic, on the same grid the sweep used. *)
  let rlen = min 3_000 ctx.frames in
  let rtrace = Trace.sub ctx.trace ~pos:0 ~len:rlen in
  let op =
    Optimal.default_params ~levels:50 ~buffer:ctx.buffer ~cost_ratio:alpha
      rtrace
  in
  let op = { op with Optimal.constraint_ = Optimal.Buffer_bound 150_000. } in
  let predictor = Predictor.ar1 ~eta:Online.default_params.Online.ar_coefficient in
  let receding, rstats =
    Online.run_receding ~buffer:ctx.buffer Online.default_params ~opt:op
      ~beam_width:8
      ~prior:(Beam.of_trace ~grid:op.Optimal.grid rtrace)
      ~horizon:12 ~predictor rtrace
  in
  let ar1 = Online.run_custom ~buffer:ctx.buffer Online.default_params ~predictor rtrace in
  pf "@.receding-horizon controller vs AR(1) heuristic (%d slots, M = 50):@."
    rlen;
  let controller_row label (o : Online.outcome) =
    pf "  %-10s cost %.4e  renegs %4d  lost %.3g  max backlog %8.0f@." label
      (cost o.Online.schedule)
      (Schedule.n_renegotiations o.Online.schedule)
      o.Online.bits_lost o.Online.max_backlog;
    checksums := Json.Int (schedule_checksum o.Online.schedule) :: !checksums;
    Json.Obj
      [
        ("controller", Json.String label);
        ("cost", Json.Float (cost o.Online.schedule));
        ("renegotiations", Json.Int (Schedule.n_renegotiations o.Online.schedule));
        ("bits_lost", Json.Float o.Online.bits_lost);
        ("max_backlog", Json.Float o.Online.max_backlog);
      ]
  in
  let receding_row = controller_row "receding" receding in
  let ar1_row = controller_row "ar1" ar1 in
  pf "  (receding: %d windows solved, %d infeasible, %d nodes expanded)@."
    rstats.Online.solves rstats.Online.infeasible_windows rstats.Online.expanded;
  emit ctx "sweep" (Json.List (List.rev !rows));
  emit ctx "controllers" (Json.List [ receding_row; ar1_row ]);
  emit ctx "receding_solves" (Json.Int rstats.Online.solves);
  emit ctx "receding_infeasible" (Json.Int rstats.Online.infeasible_windows);
  emit ctx "schedule_checksums" (Json.List (List.rev !checksums))

(* --- svc-compare: service models over one workload (DESIGN.md #15) -- *)

let svc_compare ctx =
  section
    "Svc-compare -- renegotiate vs downgrade vs MTS profile (DESIGN.md par. \
     15)";
  let module SC = Rcbr_sim.Svc_compare in
  let cfg = SC.default () in
  let cfg = if ctx.smoke then { cfg with SC.calls = 256 } else cfg in
  pf "%dx%d mesh (%.0f b/s links), %d calls x %d pieces, one seeded workload@."
    SC.rows SC.cols cfg.SC.capacity cfg.SC.calls SC.pieces_per_call;
  let m = SC.run ?pool:ctx.pool cfg in
  pf "@.%-12s %8s %8s %6s %6s %8s %8s %7s %7s@." "model" "admitted" "blocked"
    "dngr" "upgr" "block_p" "dngr_p" "util" "jain";
  let rows =
    Array.to_list
      (Array.map
         (fun (r : SC.model_metrics) ->
           pf "%-12s %8d %8d %6d %6d %8.4f %8.4f %7.4f %7.4f@." r.SC.model
             r.SC.admitted r.SC.blocked r.SC.downgrades r.SC.upgrades
             r.SC.blocking_probability r.SC.downgrade_probability
             r.SC.mean_utilization r.SC.jain_fairness;
           pf "%-12s smg %.3f, %d/%d increases denied, %d departures@." ""
             r.SC.smg r.SC.reneg_denied r.SC.reneg_attempts r.SC.departures;
           Json.Obj
             [
               ("model", Json.String r.SC.model);
               ("admitted", Json.Int r.SC.admitted);
               ("blocked", Json.Int r.SC.blocked);
               ("downgrades", Json.Int r.SC.downgrades);
               ("upgrades", Json.Int r.SC.upgrades);
               ("blocking_probability", Json.Float r.SC.blocking_probability);
               ("downgrade_probability", Json.Float r.SC.downgrade_probability);
               ("mean_utilization", Json.Float r.SC.mean_utilization);
               ("smg", Json.Float r.SC.smg);
               ("jain_fairness", Json.Float r.SC.jain_fairness);
             ])
         m.SC.models)
  in
  let audit =
    Array.fold_left
      (fun acc (r : SC.model_metrics) -> acc + r.SC.audit_violations)
      0 m.SC.models
  in
  let checksum =
    Array.fold_left
      (fun h (r : SC.model_metrics) ->
        ((h * 1_000_003) + r.SC.outcome_hash) land max_int)
      0 m.SC.models
  in
  pf "@.outcome checksum %d (identical for every -j)@." checksum;
  emit ctx "models" (Json.List rows);
  emit ctx "decisions" (Json.Int (Array.length m.SC.models * cfg.SC.calls));
  emit ctx "decision_hashes"
    (Json.List
       (Array.to_list
          (Array.map (fun (r : SC.model_metrics) -> Json.Int r.SC.decision_hash)
             m.SC.models)));
  emit ctx "result_checksum" (Json.Int checksum);
  emit ctx "audit_violations" (Json.Int audit)

(* --- driver --------------------------------------------------------- *)

let experiments =
  [
    ("tableA", table_a);
    ("fig2", fig2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("mbac-admit", mbac_admit);
    ("chernoff-sweep", chernoff_sweep);
    ("megacall", megacall);
    ("analysis", analysis);
    ("predictors", predictors);
    ("latency", latency);
    ("descriptors", descriptors);
    ("smoothing", smoothing);
    ("adaptation", adaptation);
    ("cells", cells);
    ("multihop", multihop);
    ("mesh", mesh);
    ("svc-compare", svc_compare);
    ("advance", advance);
    ("protection", protection);
    ("interactive", interactive);
    ("mixture", mixture);
    ("beam", beam_experiment);
    ("micro", micro);
  ]

(* The CI-sized default set: one experiment per subsystem that the
   BENCH trajectory tracks (trellis, SMG sweep, MBAC grid, event
   simulation, micro-kernels). *)
let smoke_set =
  [
    "tableA";
    "fig2";
    "fig6";
    "fig7";
    "fig9";
    "mbac-admit";
    "chernoff-sweep";
    "megacall";
    "multihop";
    "mesh";
    "svc-compare";
    "beam";
    "micro";
  ]

let () =
  let jobs = ref (Pool.default_jobs ()) in
  let json_dir = ref None in
  let full = ref false in
  let smoke = ref false in
  let named = ref [] in
  (* Both help texts are generated from the [experiments] assoc list so
     they cannot drift as experiments are added. *)
  let print_usage ppf =
    Format.fprintf ppf
      "usage: main.exe [experiment...] [--full] [--smoke] [-j N] \
       [--json[=DIR]]@.experiments: %s@.smoke set: %s@."
      (String.concat " " (List.map fst experiments))
      (String.concat " " smoke_set)
  in
  let usage () =
    print_usage Format.err_formatter;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | ("-h" | "--help" | "help") :: _ ->
        print_usage Format.std_formatter;
        exit 0
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest
        | _ ->
            Format.eprintf "invalid job count %S@." n;
            usage ())
    | [ ("-j" | "--jobs") ] ->
        Format.eprintf "missing job count@.";
        usage ()
    | "--json" :: rest ->
        if !json_dir = None then json_dir := Some ".";
        parse rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--json=" ->
        json_dir := Some (String.sub arg 7 (String.length arg - 7));
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "all" :: rest -> parse rest
    | name :: rest ->
        named := name :: !named;
        parse rest
  in
  parse (Array.to_list Sys.argv |> List.tl);
  let named = List.rev !named in
  let lookup name =
    match List.assoc_opt name experiments with
    | Some f -> (name, f)
    | None ->
        Format.eprintf "unknown experiment %S; known: %s@." name
          (String.concat ", " (List.map fst experiments));
        exit 2
  in
  let chosen =
    if named <> [] then List.map lookup named
    else if !smoke then List.map lookup smoke_set
    else experiments
  in
  let pool = if !jobs <= 1 then None else Some (Pool.create ~jobs:!jobs ()) in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  pf "RCBR reproduction harness -- %s trace (%d frames), %d job%s@."
    (if !full then "full" else if !smoke then "smoke" else "reduced")
    (if !full then Synthetic.default_frames else if !smoke then 3_000 else 20_000)
    !jobs
    (if !jobs = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let ctx, ctx_stats = make_ctx ~full:!full ~smoke:!smoke ~pool in
  let ctx_wall = Unix.gettimeofday () -. t0 in
  pf "context ready in %.1f s (schedule: %d renegotiations, every %.1f s)@."
    ctx_wall
    (Schedule.n_renegotiations ctx.schedule)
    (Schedule.mean_renegotiation_interval ctx.schedule);
  let bench_file name fields =
    match !json_dir with
    | None -> ()
    | Some dir ->
        let common =
          [
            ("experiment", Json.String name);
            ("jobs", Json.Int !jobs);
            ("seed", Json.Int trace_seed);
            ("frames", Json.Int ctx.frames);
            ("smoke", Json.Bool !smoke);
            ("full", Json.Bool !full);
          ]
        in
        Json.save
          (Json.Obj (common @ fields))
          (Filename.concat dir ("BENCH_" ^ name ^ ".json"))
  in
  (* The context build is itself the trellis hot path (the reference
     schedule solve), so it gets its own trajectory record. *)
  bench_file "context"
    [
      ("wall_s", Json.Float ctx_wall);
      ("expanded_nodes", Json.Int ctx_stats.Optimal.expanded);
      ("max_frontier", Json.Int ctx_stats.Optimal.max_frontier);
    ];
  List.iter
    (fun (name, f) ->
      ctx.extras := [];
      let t = Unix.gettimeofday () in
      f ctx;
      let wall = Unix.gettimeofday () -. t in
      bench_file name (("wall_s", Json.Float wall) :: List.rev !(ctx.extras)))
    chosen;
  pf "@.done in %.1f s@." (Unix.gettimeofday () -. t0)
