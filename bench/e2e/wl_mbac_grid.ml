(* mbac-grid: memory-scheme MBAC over the load x capacity grid.

   The only workload on record Session, the unbatched Controller and the
   Events engine, with about a hundred log-MGF evaluations per admission
   decision; it bypasses the Wheel-heavy megacall code.  Every point
   runs a fixed number of sampling windows, so a job is fixed work.

   Set-up is the reference schedule: one synthetic trace solved by the
   trellis.  The trace is the same for every seed, as the paper's MBAC
   runs all share one movie trace, so set-up is the same work on every
   run; the seed drives each point's call arrivals. *)

module Mbac = Rcbr_sim.Mbac
module Pool = Rcbr_util.Pool
module Synthetic = Rcbr_traffic.Synthetic
module Trace = Rcbr_traffic.Trace
module Optimal = Rcbr_core.Optimal
module Schedule = Rcbr_core.Schedule
module Controller = Rcbr_admission.Controller

(* One domain, as for megacall (see Wl_megacall). *)
let jobs = 1
let frames = 3_000
let trace_seed = 5
let loads = [ 0.6; 1.0; 1.4; 2.0 ]
let capacities = [ 32.; 64.; 128.; 256. ]
let target = 1e-3
let windows = 25

(* The reference trace and its optimal schedule, each step a span. *)
let reference spans =
  let trace =
    Span.within spans "traffic.synthesize" (fun _ ->
        Synthetic.star_wars ~frames ~seed:trace_seed ())
  in
  let schedule, stats =
    Span.within spans "trellis.solve" (fun _ ->
        Optimal.solve_with_stats ~frontier_cap:100
          (Optimal.default_params ~buffer:300_000. ~cost_ratio:3e5 trace)
          trace)
  in
  (trace, schedule, stats)

(* Row-major load x capacity points, each with its own seed. *)
let grid ~seed trace schedule =
  let mean = Trace.mean_rate trace in
  let per_call = Schedule.mean_rate schedule *. Schedule.duration schedule in
  List.concat_map
    (fun load -> List.map (fun c -> (load, c *. mean)) capacities)
    loads
  |> List.mapi (fun k (load, capacity) ->
         ( {
             (Mbac.default_config ~schedule ~capacity
                ~arrival_rate:(load *. capacity /. per_call)
                ~target ~seed:(seed + k))
             with
             Mbac.min_windows = windows;
             max_windows = windows + 1;
           },
           capacity ))
  |> Array.of_list

(* One pass over the grid; each point reports its own start and stop so
   the caller can time it without the task writing shared state. *)
let pass pool points =
  Pool.map_array ~pool
    (fun (cfg, capacity) ->
      let start = Span.now_ns () in
      let m = Mbac.run cfg ~controller:(Controller.memory ~capacity ~target) in
      (m, start, Span.now_ns ()))
    points

let point_s (_, start, stop) = float_of_int (stop - start) *. 1e-9
let sum f rs = Array.fold_left (fun acc (m, _, _) -> acc + f m) 0 rs
let decisions = sum (fun m -> m.Mbac.admission.Controller.decisions)
let invariant_failures = sum (fun m -> m.Mbac.invariant_failures)

let fingerprint rs =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun (m, _, _) -> string_of_int m.Mbac.admission.Controller.decision_hash)
          rs))

let setup ~seed () =
  let trace, schedule, _ = reference (Span.create ()) in
  (grid ~seed trace schedule, Pool.create ~jobs ())

let job (points, pool) =
  let t0 = Workload.now_s () in
  let rs = pass pool points in
  let wall_s = Workload.now_s () -. t0 in
  {
    Workload.wall_s;
    work = decisions rs;
    latencies_us = Array.map (fun r -> point_s r *. 1e6) rs;
    attempted = decisions rs;
    failed = invariant_failures rs;
    fingerprint = fingerprint rs;
  }

let spec ~seed =
  {
    Workload.setup = setup ~seed;
    job;
    teardown =
      (fun (_, pool) ->
        Pool.shutdown pool;
        0);
    peak_rss_mb = Workload.own_rss;
  }

(* Traced run: a warm-up pass and a timed pass at [jobs = 2], then the
   same pass at [jobs = 1] under spans and exact GC counters; both must
   give the same per-point decision hashes. *)
let traced ~seed spans =
  let trace, schedule, _ = reference (Span.create ()) in
  let points = grid ~seed trace schedule in
  let r2, wall2 =
    Pool.with_pool ~jobs:2 (fun pool ->
        ignore (pass pool points);
        let t0 = Workload.now_s () in
        let r = pass pool points in
        (r, Workload.now_s () -. t0))
  in
  let root = Span.enter spans "mbac.grid" in
  let r1, gc =
    Workload.gc_delta (fun () -> Pool.with_pool ~jobs:1 (fun pool -> pass pool points))
  in
  Span.leave spans root;
  Array.iter
    (fun (_, start, stop) -> ignore (Span.add spans ~parent:root "mbac.run" ~start ~stop))
    r1;
  let wall1 = float_of_int (Span.duration_ns spans root) *. 1e-9 in
  let n = decisions r1 in
  let solver f = sum (fun m -> f m.Mbac.admission.Controller.solver) r1 in
  let times = Array.map point_s r1 in
  {
    Workload.layers =
      [
        ("controller.decisions", float_of_int n);
        ( "chernoff.mgf_evals_per_decision",
          Workload.ratio (solver (fun s -> s.Rcbr_effbw.Chernoff.Solver.mgf_evals)) n );
        ( "chernoff.fits_evals_per_decision",
          Workload.ratio (solver (fun s -> s.Rcbr_effbw.Chernoff.Solver.fits_evals)) n );
        ("mbac.straggler_ratio", Array.fold_left Float.max 0. times /. Pct.median times);
        ("pool.scaling", wall1 /. wall2);
      ]
      @ Workload.gc_metrics ~ops:n gc;
    notes =
      Workload.fingerprint_notes ~workload:"mbac-grid" ~seed
        [ fingerprint r2; fingerprint r1 ];
    digest = fingerprint r1;
    attempted = n;
    failed = invariant_failures r1;
  }
