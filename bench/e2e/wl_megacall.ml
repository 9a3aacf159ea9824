(* megacall-ramp and megacall-churn: one engine, driven two ways.

   The ramp is the committed megacall config scaled to 2^16 calls:
   admission- and Store.acquire-bound, it barely touches the Wheel.
   Churn shortens holds to 1 s over a 4 s horizon at 2^15 calls, so the
   same layers are used the other way round: wheel events, renegotiation
   probes (Store.fits) and release/reacquire writes.  A Wheel or Store
   change that helps one and hurts the other shows up here.  Both sizes
   keep one job under a second, so a run holds tens of jobs; the
   committed 2^20 ramp takes seconds per job.

   Jobs run on one domain, the Pool default (cores - 1) on a 2-core
   machine.  On a shared 2-vCPU host two domains wait on each other's
   stalls, which nearly doubled the run-to-run spread; the traced run
   still measures the 2-domain fan-out ([pool.scaling]). *)

module Megacall = Rcbr_sim.Megacall
module Pool = Rcbr_util.Pool

type shape = Ramp | Churn

let jobs = 1
let name = function Ramp -> "megacall-ramp" | Churn -> "megacall-churn"

let config shape ~seed =
  match shape with
  | Ramp -> { (Megacall.default ~concurrent:(1 lsl 16) ()) with Megacall.seed }
  | Churn ->
      {
        (Megacall.default ~concurrent:(1 lsl 15) ()) with
        Megacall.mean_hold = 1.;
        horizon = 4.;
        seed;
      }

(* The unit of work [work_per_s] counts: admitted calls on the ramp,
   fired wheel events under churn. *)
let work shape (m : Megacall.metrics) =
  match shape with Ramp -> m.total_admitted | Churn -> m.total_events

let timed f =
  let t0 = Workload.now_s () in
  let r = f () in
  (r, Workload.now_s () -. t0)

(* Megacall takes no input beyond its config, so set-up is what a user
   pays before the first result: starting the pool and one run
   on it, which grows the heap the measured runs then reuse. *)
let setup shape ~seed () =
  let cfg = config shape ~seed in
  let pool = Pool.create ~jobs () in
  ignore (Megacall.run ~pool cfg);
  (cfg, pool)

let spec shape ~seed =
  {
    Workload.setup = setup shape ~seed;
    job =
      (fun (cfg, pool) ->
        let m, wall_s = timed (fun () -> Megacall.run ~pool cfg) in
        {
          Workload.wall_s;
          work = work shape m;
          (* the user waits for the whole simulation *)
          latencies_us = [| wall_s *. 1e6 |];
          attempted = m.total_admitted;
          failed = m.audit_violations;
          fingerprint = string_of_int m.outcome_hash;
        });
    teardown =
      (fun (_, pool) ->
        Pool.shutdown pool;
        0);
    peak_rss_mb = Workload.own_rss;
  }

(* Traced run: a warm-up run and a timed run at [jobs = 2], then the
   same config at [jobs = 1] under a span and exact GC counters.  The
   warm-up grows the heap, so neither timed run pays for it.  The two
   outcome hashes must agree (the engine's -j invariant). *)
let traced shape ~seed spans =
  let cfg = config shape ~seed in
  let m2, wall2 =
    Pool.with_pool ~jobs:2 (fun pool ->
        ignore (Megacall.run ~pool cfg);
        timed (fun () -> Megacall.run ~pool cfg))
  in
  let (m1, wall1), gc =
    Workload.gc_delta (fun () ->
        Span.within spans "megacall.run" (fun _ ->
            Pool.with_pool ~jobs:1 (fun pool -> timed (fun () -> Megacall.run ~pool cfg))))
  in
  let notes =
    Workload.fingerprint_notes ~workload:(name shape) ~seed
      [ string_of_int m2.Megacall.outcome_hash; string_of_int m1.Megacall.outcome_hash ]
  in
  let f = float_of_int in
  let layers =
    [
      ("megacall.decisions", f m1.total_arrivals);
      ("megacall.events", f m1.total_events);
      ("megacall.reneg_probes", f m1.total_reneg_attempts);
      ("megacall.departures", f m1.total_departures);
      ( "megacall.reneg_deny_ratio",
        Workload.ratio m1.total_reneg_denied m1.total_reneg_attempts );
      ("pool.scaling", wall1 /. wall2);
      ( "controller.batch_hit_ratio",
        Workload.ratio m1.total_batch_hits m1.total_arrivals );
      ("chernoff.memo_hit_ratio", Workload.ratio m1.total_memo_hits m1.total_arrivals);
    ]
    @ Workload.gc_metrics ~ops:(work shape m1) gc
  in
  {
    Workload.layers;
    notes;
    digest = string_of_int m1.Megacall.outcome_hash;
    attempted = m1.Megacall.total_admitted;
    failed = m1.Megacall.audit_violations;
  }
