(* Unit tests for Rcbr_sim: SMG scenarios and the MBAC call-level
   simulator. *)

module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal
module Smg = Rcbr_sim.Smg
module Mbac = Rcbr_sim.Mbac
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor

let check_close eps = Alcotest.(check (float eps))

let trace = Rcbr_traffic.Synthetic.star_wars ~frames:6_000 ~seed:42 ()
let schedule = Optimal.solve (Optimal.default_params ~cost_ratio:2e5 trace) trace

let config () =
  {
    Smg.trace;
    schedule;
    buffer = 300_000.;
    target_loss = 1e-5;
    replications = 2;
    seed = 7;
  }

(* --- Smg --- *)

let test_validate () =
  let c = config () in
  Smg.validate c;
  Alcotest.(check bool) "bad buffer rejected" true
    (try Smg.validate { c with Smg.buffer = 0. }; false
     with Invalid_argument _ -> true);
  let short = Trace.sub trace ~pos:0 ~len:100 in
  Alcotest.(check bool) "length mismatch rejected" true
    (try Smg.validate { c with Smg.trace = short }; false
     with Invalid_argument _ -> true)

let test_cbr_independent_of_n () =
  let c = config () in
  let cap = Smg.min_capacity_cbr c in
  Alcotest.(check bool) "above mean" true (cap > Trace.mean_rate trace);
  Alcotest.(check bool) "below peak" true (cap <= Trace.peak_rate trace)

let test_shared_equals_cbr_at_n1 () =
  let c = config () in
  let cbr = Smg.min_capacity_cbr c in
  let shared = List.hd (Smg.min_capacities_shared c ~ns:[ 1 ]) in
  check_close (cbr *. 0.01) "n=1 shared = dedicated" cbr shared

let decreasing = function
  | [ c1; c10; c40 ] -> c1 >= c10 && c10 >= c40
  | _ -> false

let test_shared_gain_grows_with_n () =
  let c = config () in
  Alcotest.(check bool) "SMG grows" true
    (decreasing (Smg.min_capacities_shared c ~ns:[ 1; 10; 40 ]))

let test_rcbr_gain_grows_with_n () =
  let c = config () in
  Alcotest.(check bool) "SMG grows" true
    (decreasing (Smg.min_capacities_rcbr c ~ns:[ 1; 10; 40 ]))

let test_rcbr_between_shared_and_cbr () =
  (* The paper's headline ordering at moderate n: shared <= rcbr <= cbr. *)
  let c = config () in
  let cbr = Smg.min_capacity_cbr c in
  let shared = List.hd (Smg.min_capacities_shared c ~ns:[ 20 ]) in
  let rcbr = List.hd (Smg.min_capacities_rcbr c ~ns:[ 20 ]) in
  Alcotest.(check bool) "shared is the lower bound" true (shared <= rcbr *. 1.05);
  Alcotest.(check bool) "rcbr beats static CBR" true (rcbr < cbr)

let test_rcbr_loss_monotone () =
  let c = config () in
  let l1 = Smg.rcbr_loss c ~n:10 ~capacity_per_stream:(Trace.mean_rate trace) in
  let l2 =
    Smg.rcbr_loss c ~n:10 ~capacity_per_stream:(2. *. Trace.mean_rate trace)
  in
  Alcotest.(check bool) "loss decreases with capacity" true (l2 <= l1);
  Alcotest.(check bool) "losses are fractions" true (l1 >= 0. && l1 <= 1.)

let test_rcbr_asymptote () =
  let c = config () in
  check_close 1e-9 "asymptote is schedule mean" (Schedule.mean_rate schedule)
    (Smg.asymptotic_rcbr_capacity c);
  (* At large n the needed capacity approaches the asymptote. *)
  let c80 = List.hd (Smg.min_capacities_rcbr c ~ns:[ 80 ]) in
  Alcotest.(check bool) "close to asymptote at n=80" true
    (c80 < 1.5 *. Smg.asymptotic_rcbr_capacity c)

let test_shared_loss_exposed () =
  let c = config () in
  let loss = Smg.shared_loss c ~n:5 ~capacity_per_stream:(Trace.mean_rate trace) in
  Alcotest.(check bool) "fraction" true (loss >= 0. && loss <= 1.)

(* --- Mbac pieces --- *)

let test_shifted_pieces_cover_duration () =
  let pieces = Mbac.shifted_pieces schedule ~shift:1234 in
  let total = Array.fold_left (fun acc (d, _) -> acc +. d) 0. pieces in
  check_close 1e-6 "durations cover the schedule" (Schedule.duration schedule) total;
  Array.iter
    (fun (d, r) ->
      if d <= 0. then Alcotest.fail "nonpositive duration";
      if r < 0. then Alcotest.fail "negative rate")
    pieces

let test_shifted_pieces_zero_shift () =
  let pieces = Mbac.shifted_pieces schedule ~shift:0 in
  let segs = Schedule.segments schedule in
  check_close 1e-12 "first rate" segs.(0).Schedule.rate (snd pieces.(0))

let test_shifted_pieces_rate_match () =
  (* The rate at elapsed time u must equal the shifted schedule's rate. *)
  let shift = 777 in
  let pieces = Mbac.shifted_pieces schedule ~shift in
  let fps = Schedule.fps schedule in
  let n = Schedule.n_slots schedule in
  (* Walk pieces and compare at piece starts. *)
  let elapsed = ref 0. in
  Array.iter
    (fun (d, r) ->
      let slot = int_of_float (Float.round (!elapsed *. fps)) in
      if slot < n then begin
        let expected = Schedule.rate_at schedule ((slot + shift) mod n) in
        check_close 1e-9 "piece rate matches shifted schedule" expected r
      end;
      elapsed := !elapsed +. d)
    pieces

(* --- Mbac simulation --- *)

let mbac_config ?(capacity = 16. *. Trace.mean_rate trace) ?(load = 1.0) seed =
  let arrival_rate =
    load *. capacity /. (Trace.mean_rate trace *. Schedule.duration schedule)
  in
  Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3 ~seed

let test_mbac_deterministic () =
  let run () =
    Mbac.run (mbac_config 5)
      ~controller:(Controller.memoryless ~capacity:(16. *. Trace.mean_rate trace) ~target:1e-3)
  in
  let a = run () and b = run () in
  check_close 1e-12 "same failure" a.Mbac.failure_probability b.Mbac.failure_probability;
  check_close 1e-12 "same utilization" a.Mbac.utilization b.Mbac.utilization;
  Alcotest.(check int) "same windows" a.Mbac.windows b.Mbac.windows

let test_mbac_offered_load () =
  (* offered_load = arrival_rate * duration * schedule_mean / capacity *)
  let capacity = 16. *. Trace.mean_rate trace in
  let arrival_rate =
    2. *. capacity /. (Schedule.mean_rate schedule *. Schedule.duration schedule)
  in
  let c =
    Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3 ~seed:3
  in
  check_close 1e-9 "normalized load" 2. (Mbac.offered_load c)

let test_mbac_always_admit_overloads () =
  let capacity = 8. *. Trace.mean_rate trace in
  let always =
    Mbac.run (mbac_config ~capacity ~load:2.0 9) ~controller:(Controller.always_admit ())
  in
  let perfect =
    Mbac.run (mbac_config ~capacity ~load:2.0 9)
      ~controller:
        (Controller.perfect ~descriptor:(Descriptor.of_schedule schedule)
           ~capacity ~target:1e-3)
  in
  Alcotest.(check bool) "uncontrolled loses more" true
    (always.Mbac.failure_probability >= perfect.Mbac.failure_probability);
  Alcotest.(check bool) "no blocking without control" true
    (Float.equal always.Mbac.call_blocking 0.);
  Alcotest.(check bool) "perfect blocks under overload" true
    (perfect.Mbac.call_blocking > 0.)

let test_mbac_perfect_meets_target () =
  let capacity = 16. *. Trace.mean_rate trace in
  let m =
    Mbac.run (mbac_config ~capacity ~load:1.2 13)
      ~controller:
        (Controller.perfect ~descriptor:(Descriptor.of_schedule schedule)
           ~capacity ~target:1e-3)
  in
  Alcotest.(check bool) "failure within an order of target" true
    (m.Mbac.failure_probability <= 1e-2);
  Alcotest.(check bool) "utilization sane" true
    (m.Mbac.utilization >= 0. && m.Mbac.utilization <= 1.)

let test_mbac_metrics_ranges () =
  let m =
    Mbac.run (mbac_config 21)
      ~controller:(Controller.memoryless ~capacity:(16. *. Trace.mean_rate trace) ~target:1e-3)
  in
  Alcotest.(check bool) "failure in [0,1]" true
    (m.Mbac.failure_probability >= 0. && m.Mbac.failure_probability <= 1.);
  Alcotest.(check bool) "utilization in [0,1]" true
    (m.Mbac.utilization >= 0. && m.Mbac.utilization <= 1.);
  Alcotest.(check bool) "blocking in [0,1]" true
    (m.Mbac.call_blocking >= 0. && m.Mbac.call_blocking <= 1.);
  Alcotest.(check bool) "denials in [0,1]" true
    (m.Mbac.denial_fraction >= 0. && m.Mbac.denial_fraction <= 1.);
  Alcotest.(check bool) "windows at least min" true (m.Mbac.windows >= 10);
  Alcotest.(check bool) "calls nonnegative" true (m.Mbac.mean_calls_in_system >= 0.)

let test_mbac_utilization_grows_with_load () =
  let capacity = 16. *. Trace.mean_rate trace in
  let util load =
    (Mbac.run (mbac_config ~capacity ~load 31)
       ~controller:(Controller.always_admit ()))
      .Mbac.utilization
  in
  Alcotest.(check bool) "heavier load, higher utilization" true
    (util 1.5 > util 0.3)

(* --- Pool determinism: every sweep is bit-identical for any -j ------ *)

module Pool = Rcbr_util.Pool

let with_jobs jobs f =
  if jobs <= 1 then f None else Pool.with_pool ~jobs (fun p -> f (Some p))

let test_smg_jobs_invariant () =
  let c = config () in
  let sweep pool =
    ( Smg.min_capacities_shared ?pool c ~ns:[ 8 ],
      Smg.rcbr_loss ?pool c ~n:8
        ~capacity_per_stream:(1.2 *. Trace.mean_rate trace),
      Smg.min_capacities_rcbr ?pool c ~ns:[ 1; 4; 8 ] )
  in
  let seq = with_jobs 1 sweep and par = with_jobs 4 sweep in
  (* Bit-identical, not approximately equal: the pool only reorders
     execution, never the pre-split rng streams or the reduction. *)
  (* lint: allow F001 — the claim is equality of the whole result tuple;
     a nan anywhere in it fails the check, which is what it should do *)
  Alcotest.(check bool) "shared/loss/rcbr identical" true (seq = par)

let test_mbac_run_many_jobs_invariant () =
  let capacity = 16. *. Trace.mean_rate trace in
  let entries () =
    Array.of_list
      (List.concat_map
         (fun load ->
           [
             ( mbac_config ~capacity ~load 17,
               fun () -> Controller.memoryless ~capacity ~target:1e-3 );
             ( mbac_config ~capacity ~load 17,
               fun () -> Controller.memory ~capacity ~target:1e-3 );
           ])
         [ 0.8; 1.4 ])
  in
  let seq = with_jobs 1 (fun pool -> Mbac.run_many ?pool (entries ())) in
  let par = with_jobs 4 (fun pool -> Mbac.run_many ?pool (entries ())) in
  Alcotest.(check bool) "grid identical across -j" true (seq = par);
  (* And run_many at -j 1 is exactly the sequential Mbac.run loop. *)
  let direct =
    Array.map (fun (c, make) -> Mbac.run c ~controller:(make ())) (entries ())
  in
  Alcotest.(check bool) "run_many = run" true (seq = direct)

let test_multihop_run_many_jobs_invariant () =
  let base hops =
    {
      Rcbr_sim.Multihop.schedule;
      topology =
        Rcbr_net.Topology.linear ~hops ~capacity:(10. *. Trace.mean_rate trace);
      transit_calls = 3;
      local_calls_per_link = 4;
      horizon = 2. *. Schedule.duration schedule;
      seed = 5;
      balance = false;
      service = Rcbr_policy.Service_model.Renegotiate;
    }
  in
  let configs = List.map base [ 1; 2; 4 ] in
  let seq = with_jobs 1 (fun pool -> Rcbr_sim.Multihop.run_many ?pool configs) in
  let par = with_jobs 4 (fun pool -> Rcbr_sim.Multihop.run_many ?pool configs) in
  Alcotest.(check bool) "hop sweep identical across -j" true (seq = par);
  Alcotest.(check bool) "run_many = run_net" true
    (seq
    = List.map
        (fun nc -> fst (Rcbr_sim.Multihop.run_net nc Rcbr_net.Session.no_faults))
        configs)

let test_megacall_jobs_invariant () =
  (* The million-call engine at test scale: every shard, counter and
     the outcome hash must be bit-identical at -j1 and -j4, and the
     population must reach the ramp target with conservation intact. *)
  let module Megacall = Rcbr_sim.Megacall in
  let cfg =
    {
      (Megacall.default ~concurrent:2048 ()) with
      Megacall.shards = 4;
      calls_per_shard = 512;
    }
  in
  let seq = with_jobs 1 (fun pool -> Megacall.run ?pool cfg) in
  let par = with_jobs 4 (fun pool -> Megacall.run ?pool cfg) in
  Alcotest.(check bool) "metrics identical across -j" true (seq = par);
  Alcotest.(check int) "outcome hash identical" seq.Megacall.outcome_hash
    par.Megacall.outcome_hash;
  Alcotest.(check int) "no audit violations" 0 seq.Megacall.audit_violations;
  Alcotest.(check bool) "ramp reached the target" true
    (seq.Megacall.peak_concurrent
    >= cfg.Megacall.shards * cfg.Megacall.calls_per_shard * 4 / 5);
  Alcotest.(check int) "shard count" cfg.Megacall.shards
    (Array.length seq.Megacall.shards_);
  (* Same config, different seed: the outcome must move (the hash
     actually covers the simulation, not just the shape). *)
  let other =
    with_jobs 1 (fun pool ->
        Megacall.run ?pool { cfg with Megacall.seed = cfg.Megacall.seed + 1 })
  in
  Alcotest.(check bool) "seed reaches the hash" true
    (other.Megacall.outcome_hash <> seq.Megacall.outcome_hash)

(* The committed 8 192-call megacall run (seed 42, one domain) under
   each service model, built as [rcbr_megacall --service] builds it:
   the downgrade ladder is the sorted rate levels, the MTS profile a
   3-scale ladder from the mean to the top level.  The pins cover the
   outcome hash (every admit/deny, link demand and counter), the
   admitted population and the batch hits, the decisions the controller
   answered from its stored bounds on the admission limit; every pinned
   hit count is above 0, so that path runs under all three models. *)
let megacall_golden =
  [
    ("renegotiate", (2268865991550272918, 7_697, 6_960));
    ("downgrade", (1704212796314529142, 6_325, 6_980));
    ("mts", (627595711395470038, 7_697, 6_960));
  ]

let test_megacall_golden_outcomes () =
  let module Megacall = Rcbr_sim.Megacall in
  let module Service_model = Rcbr_policy.Service_model in
  let base = Megacall.default ~concurrent:8192 () in
  let levels = base.Megacall.levels in
  let tiers = Array.copy levels in
  Array.sort Float.compare tiers;
  let mean =
    Array.fold_left ( +. ) 0. levels /. float_of_int (Array.length levels)
  in
  let peak = tiers.(Array.length tiers - 1) in
  let service = function
    | "renegotiate" -> Service_model.Renegotiate
    | "downgrade" -> Service_model.Downgrade { tiers }
    | _ ->
        Service_model.Mts_profile
          (Rcbr_policy.Mts.ladder ~scales:3 ~quantum:50. ~mean ~peak)
  in
  let observed =
    List.map
      (fun (name, _) ->
        let m = Megacall.run { base with Megacall.service = service name } in
        ( name,
          (m.Megacall.outcome_hash, m.Megacall.total_admitted,
           m.Megacall.total_batch_hits) ))
      megacall_golden
  in
  Alcotest.(check (list (pair string (triple int int int))))
    "outcome hash, admitted, batch hits" megacall_golden observed

(* MBAC under each service model, both measuring controllers and a
   reliable and a lossy (rm_drop 0.3) signalling plane, with the
   conservation audit on: a 3 000-frame schedule at load 3, 16x the
   mean and target 1e-2, so the downgrade runs also upgrade.  The
   downgrade ladder and the MTS profile are the ones
   [rcbr_mbac --service] derives from the schedule.  The pins cover the
   decision hash (every admit/deny), the window count, the downgrade,
   upgrade and dropped-cell counters and a clean audit; the failure and
   utilization floats are gated by the bench's fig7/fig9 checksums.
   The downgrade rows' counters also pin the upgrade order (the store's
   queue, DESIGN.md §15). *)
let mbac_golden =
  [
    ("renegotiate memoryless 0", [ 3068104071082203218; 10; 0; 0; 0; 0 ]);
    ("renegotiate memoryless 0.3", [ 523837643888515359; 10; 0; 0; 658; 0 ]);
    ("renegotiate memory 0", [ 219006415590064015; 10; 0; 0; 0; 0 ]);
    ("renegotiate memory 0.3", [ 1552472040356053088; 10; 0; 0; 583; 0 ]);
    ("downgrade memoryless 0", [ 3068104071082203218; 10; 35; 11; 0; 0 ]);
    ("downgrade memoryless 0.3", [ 523837643888515359; 10; 23; 6; 658; 0 ]);
    ("downgrade memory 0", [ 219006415590064015; 10; 0; 0; 0; 0 ]);
    ("downgrade memory 0.3", [ 1552472040356053088; 10; 9; 3; 583; 0 ]);
    ("mts memoryless 0", [ 707397815530851239; 10; 356; 0; 0; 0 ]);
    ("mts memoryless 0.3", [ 2698327047382260666; 10; 352; 0; 679; 0 ]);
    ("mts memory 0", [ 1338527362464403163; 10; 310; 0; 0; 0 ]);
    ("mts memory 0.3", [ 4457875720079437490; 10; 309; 0; 603; 0 ]);
  ]

let test_mbac_golden_outcomes () =
  let module Service_model = Rcbr_policy.Service_model in
  let module Session = Rcbr_net.Session in
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:3_000 ~seed:42 () in
  let schedule =
    Optimal.solve (Optimal.default_params ~cost_ratio:2e5 trace) trace
  in
  let capacity = 16. *. Trace.mean_rate trace and target = 1e-2 in
  let arrival_rate =
    3. *. capacity /. (Schedule.mean_rate schedule *. Schedule.duration schedule)
  in
  let services =
    [
      Service_model.Renegotiate;
      Service_model.Downgrade
        { tiers = Service_model.tiers_of_schedule schedule ~n:4 };
      Service_model.Mts_profile
        (Rcbr_policy.Mts.of_schedule schedule ~scales:3 ~base_window:16);
    ]
  in
  let controllers =
    [
      ("memoryless", fun () -> Controller.memoryless ~capacity ~target);
      ("memory", fun () -> Controller.memory ~capacity ~target);
    ]
  in
  let observed =
    List.concat_map
      (fun service ->
        List.concat_map
          (fun (cname, make) ->
            List.map
              (fun rm_drop ->
                let faults =
                  {
                    Session.no_faults with
                    Session.rm_drop;
                    fault_seed = 44;
                    check_invariants = true;
                  }
                in
                let m =
                  Mbac.run
                    {
                      (Mbac.default_config ~schedule ~capacity ~arrival_rate ~target
                         ~seed:43)
                      with
                      Mbac.service;
                      faults;
                    }
                    ~controller:(make ())
                in
                ( Printf.sprintf "%s %s %g" (Service_model.name service) cname
                    rm_drop,
                  [
                    m.Mbac.admission.Controller.decision_hash;
                    m.Mbac.windows;
                    m.Mbac.downgrades;
                    m.Mbac.upgrades;
                    m.Mbac.signalling_dropped;
                    m.Mbac.invariant_failures;
                  ] ))
              [ 0.; 0.3 ])
          controllers)
      services
  in
  Alcotest.(check (list (pair string (list int))))
    "decision hash, windows, downgrades, upgrades, dropped, audit failures"
    mbac_golden observed

let () =
  Alcotest.run "rcbr_sim"
    [
      ( "smg",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "cbr bounds" `Quick test_cbr_independent_of_n;
          Alcotest.test_case "shared = cbr at n=1" `Quick test_shared_equals_cbr_at_n1;
          Alcotest.test_case "shared SMG grows" `Quick test_shared_gain_grows_with_n;
          Alcotest.test_case "rcbr SMG grows" `Quick test_rcbr_gain_grows_with_n;
          Alcotest.test_case "ordering" `Quick test_rcbr_between_shared_and_cbr;
          Alcotest.test_case "rcbr loss monotone" `Quick test_rcbr_loss_monotone;
          Alcotest.test_case "asymptote" `Quick test_rcbr_asymptote;
          Alcotest.test_case "shared loss" `Quick test_shared_loss_exposed;
        ] );
      ( "pieces",
        [
          Alcotest.test_case "cover duration" `Quick test_shifted_pieces_cover_duration;
          Alcotest.test_case "zero shift" `Quick test_shifted_pieces_zero_shift;
          Alcotest.test_case "rates match" `Quick test_shifted_pieces_rate_match;
        ] );
      ( "mbac",
        [
          Alcotest.test_case "deterministic" `Quick test_mbac_deterministic;
          Alcotest.test_case "offered load" `Quick test_mbac_offered_load;
          Alcotest.test_case "uncontrolled overload" `Quick
            test_mbac_always_admit_overloads;
          Alcotest.test_case "perfect meets target" `Quick
            test_mbac_perfect_meets_target;
          Alcotest.test_case "metric ranges" `Quick test_mbac_metrics_ranges;
          Alcotest.test_case "utilization vs load" `Quick
            test_mbac_utilization_grows_with_load;
          Alcotest.test_case "golden outcomes" `Quick test_mbac_golden_outcomes;
        ] );
      ( "pool determinism",
        [
          Alcotest.test_case "smg jobs-invariant" `Quick test_smg_jobs_invariant;
          Alcotest.test_case "mbac grid jobs-invariant" `Quick
            test_mbac_run_many_jobs_invariant;
          Alcotest.test_case "multihop sweep jobs-invariant" `Quick
            test_multihop_run_many_jobs_invariant;
          Alcotest.test_case "megacall jobs-invariant" `Quick
            test_megacall_jobs_invariant;
          Alcotest.test_case "megacall golden outcomes" `Quick
            test_megacall_golden_outcomes;
        ] );
    ]
