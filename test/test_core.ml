(* Unit and property tests for Rcbr_core: schedules, the optimal trellis
   algorithm (checked against exhaustive enumeration), and the online
   heuristic. *)

module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Rate_grid = Rcbr_core.Rate_grid
module Optimal = Rcbr_core.Optimal
module Beam = Rcbr_core.Beam
module Online = Rcbr_core.Online
module Predictor = Rcbr_core.Predictor
module Fluid = Rcbr_queue.Fluid

let check_close eps = Alcotest.(check (float eps))

(* --- Schedule --- *)

let sched_4 () =
  Schedule.create ~fps:2. ~n_slots:8
    [
      { Schedule.start_slot = 0; rate = 10. };
      { Schedule.start_slot = 2; rate = 30. };
      { Schedule.start_slot = 6; rate = 20. };
    ]

let test_schedule_basic () =
  let s = sched_4 () in
  Alcotest.(check int) "renegotiations" 2 (Schedule.n_renegotiations s);
  check_close 1e-9 "duration" 4. (Schedule.duration s);
  check_close 1e-9 "rate at 0" 10. (Schedule.rate_at s 0);
  check_close 1e-9 "rate at 1" 10. (Schedule.rate_at s 1);
  check_close 1e-9 "rate at 2" 30. (Schedule.rate_at s 2);
  check_close 1e-9 "rate at 5" 30. (Schedule.rate_at s 5);
  check_close 1e-9 "rate at 7" 20. (Schedule.rate_at s 7);
  (* mean = (2*10 + 4*30 + 2*20)/8 *)
  check_close 1e-9 "mean rate" 22.5 (Schedule.mean_rate s);
  check_close 1e-9 "peak" 30. (Schedule.peak_rate s);
  check_close 1e-9 "mean interval" (4. /. 3.) (Schedule.mean_renegotiation_interval s)

let test_schedule_to_rates_matches_rate_at () =
  let s = sched_4 () in
  let rates = Schedule.to_rates s in
  for i = 0 to 7 do
    check_close 1e-12 "consistent" (Schedule.rate_at s i) rates.(i)
  done

let test_schedule_merges_equal_rates () =
  let s =
    Schedule.create ~fps:1. ~n_slots:4
      [
        { Schedule.start_slot = 0; rate = 5. };
        { Schedule.start_slot = 2; rate = 5. };
      ]
  in
  Alcotest.(check int) "merged" 0 (Schedule.n_renegotiations s)

let test_schedule_validation () =
  let bad segs = try ignore (Schedule.create ~fps:1. ~n_slots:4 segs); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (bad []);
  Alcotest.(check bool) "first not at 0" true
    (bad [ { Schedule.start_slot = 1; rate = 1. } ]);
  Alcotest.(check bool) "not increasing" true
    (bad
       [
         { Schedule.start_slot = 0; rate = 1. };
         { Schedule.start_slot = 0; rate = 2. };
       ]);
  Alcotest.(check bool) "beyond end" true
    (bad
       [
         { Schedule.start_slot = 0; rate = 1. };
         { Schedule.start_slot = 9; rate = 2. };
       ]);
  Alcotest.(check bool) "negative rate" true
    (bad [ { Schedule.start_slot = 0; rate = -1. } ])

let test_schedule_cost () =
  let s = sched_4 () in
  (* service bits = mean * duration = 22.5 * 4 = 90 *)
  check_close 1e-9 "cost" ((2. *. 7.) +. 90.)
    (Schedule.cost s ~reneg_cost:7. ~bandwidth_cost:1.)

let test_schedule_marginal () =
  let s = sched_4 () in
  let m = Schedule.marginal s in
  let total = Array.fold_left (fun a (p, _) -> a +. p) 0. m in
  check_close 1e-9 "sums to 1" 1. total;
  let mean = Array.fold_left (fun a (p, r) -> a +. (p *. r)) 0. m in
  check_close 1e-9 "marginal mean = schedule mean" (Schedule.mean_rate s) mean

let test_schedule_shift () =
  let s = sched_4 () in
  let sh = Schedule.shift s ~slots:2 in
  check_close 1e-9 "shifted start" 30. (Schedule.rate_at sh 0);
  check_close 1e-9 "wrap" 10. (Schedule.rate_at sh 6);
  check_close 1e-9 "mean preserved" (Schedule.mean_rate s) (Schedule.mean_rate sh);
  let full = Schedule.shift s ~slots:8 in
  for i = 0 to 7 do
    check_close 1e-12 "full shift identity" (Schedule.rate_at s i)
      (Schedule.rate_at full i)
  done

let test_schedule_constant () =
  let s = Schedule.constant ~fps:1. ~n_slots:10 42. in
  Alcotest.(check int) "no renegotiations" 0 (Schedule.n_renegotiations s);
  check_close 1e-9 "rate" 42. (Schedule.rate_at s 5)

(* "@ " in a Format string is a break hint, so the header's literal "@"
   must be written "@@" to keep the header on one line. *)
let test_schedule_pp () =
  Alcotest.(check string) "two lines, header whole"
    "schedule: 8 slots @ 2 fps, 2 renegotiations\n\
     mean rate 0.0 kb/s, peak 0.0 kb/s, mean interval 1.33 s"
    (Format.asprintf "%a" Schedule.pp (sched_4 ()))

let test_bandwidth_efficiency () =
  let trace = Trace.create ~fps:2. (Array.make 8 10.) in
  (* trace mean = 20 b/s; schedule mean 22.5 -> eff = 20/22.5 *)
  check_close 1e-9 "efficiency" (20. /. 22.5)
    (Schedule.bandwidth_efficiency (sched_4 ()) ~trace)

(* --- Rate_grid --- *)

let test_grid_uniform () =
  let g = Rate_grid.uniform ~lo:0. ~hi:100. ~levels:5 in
  Alcotest.(check int) "levels" 5 (Rate_grid.levels g);
  check_close 1e-9 "first" 0. (Rate_grid.rate g 0);
  check_close 1e-9 "step" 25. (Rate_grid.rate g 1);
  check_close 1e-9 "top" 100. (Rate_grid.top g)

let test_grid_quantize () =
  let g = Rate_grid.uniform ~lo:0. ~hi:100. ~levels:5 in
  check_close 1e-9 "exact" 25. (Rate_grid.quantize_up g 25.);
  check_close 1e-9 "rounds up" 50. (Rate_grid.quantize_up g 25.1);
  check_close 1e-9 "below range" 0. (Rate_grid.quantize_up g (-3.));
  check_close 1e-9 "above range clamps" 100. (Rate_grid.quantize_up g 1000.);
  Alcotest.(check int) "index" 2 (Rate_grid.index_up g 26.)

let test_grid_covering () =
  let g = Rate_grid.uniform ~lo:0. ~hi:100. ~levels:3 in
  let g' = Rate_grid.covering g ~peak:250. in
  Alcotest.(check int) "extra level" 4 (Rate_grid.levels g');
  check_close 1e-9 "new top" 250. (Rate_grid.top g');
  let same = Rate_grid.covering g ~peak:50. in
  Alcotest.(check int) "unchanged" 3 (Rate_grid.levels same)

let test_grid_paper_default () =
  (* The paper's grid as the solver's default parameters build it, for
     a trace the 2.4 Mb/s top already drains. *)
  let trace = Trace.create ~fps:1. [| 1_000.; 2_000. |] in
  let g = (Optimal.default_params ~cost_ratio:1. trace).Optimal.grid in
  Alcotest.(check int) "20 levels" 20 (Rate_grid.levels g);
  check_close 1e-9 "48 kb/s" 48_000. (Rate_grid.rate g 0);
  check_close 1e-9 "2.4 Mb/s" 2_400_000. (Rate_grid.top g)

(* --- Optimal: exhaustive cross-check --- *)

(* Enumerate every rate sequence over the grid and return the minimum
   cost subject to the buffer bound; the trellis must match exactly. *)
let brute_force ~grid ~reneg_cost ~bandwidth_cost ~buffer trace =
  let m = Rate_grid.levels grid in
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let best = ref infinity in
  let rec go t level buffer_occ cost =
    if cost >= !best then ()
    else if t = n then best := Float.min !best cost
    else
      for l = 0 to m - 1 do
        let change = if t > 0 && l <> level then reneg_cost else 0. in
        let b = Float.max 0. (buffer_occ +. Trace.frame trace t -. (Rate_grid.rate grid l *. tau)) in
        if b <= buffer then
          go (t + 1) l b
            (cost +. change +. (bandwidth_cost *. Rate_grid.rate grid l *. tau))
      done
  in
  go 0 (-1) 0. 0.;
  !best

let trellis_cost params trace =
  let s = Optimal.solve params trace in
  Schedule.cost s ~reneg_cost:params.Optimal.reneg_cost
    ~bandwidth_cost:params.Optimal.bandwidth_cost

let test_optimal_matches_brute_force_hand () =
  let grid = Rate_grid.of_rates [| 5.; 10.; 20. |] in
  let trace = Trace.create ~fps:1. [| 0.; 18.; 18.; 2.; 2.; 0. |] in
  let params =
    {
      Optimal.grid;
      reneg_cost = 4.;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Buffer_bound 10.;
    }
  in
  let expected =
    brute_force ~grid ~reneg_cost:4. ~bandwidth_cost:1. ~buffer:10. trace
  in
  check_close 1e-9 "optimal cost" expected (trellis_cost params trace)

let test_optimal_prefers_single_rate_when_renegotiation_expensive () =
  let grid = Rate_grid.of_rates [| 5.; 10.; 20. |] in
  let trace = Trace.create ~fps:1. [| 20.; 5.; 5.; 5. |] in
  let params =
    {
      Optimal.grid;
      reneg_cost = 1e9;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Buffer_bound 0.;
    }
  in
  let s = Optimal.solve params trace in
  Alcotest.(check int) "no renegotiation" 0 (Schedule.n_renegotiations s);
  check_close 1e-9 "peak rate chosen" 20. (Schedule.rate_at s 0)

let test_optimal_tracks_when_renegotiation_free () =
  let grid = Rate_grid.of_rates [| 5.; 10.; 20. |] in
  let trace = Trace.create ~fps:1. [| 20.; 5.; 5.; 20. |] in
  let params =
    {
      Optimal.grid;
      reneg_cost = 0.;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Buffer_bound 0.;
    }
  in
  let s = Optimal.solve params trace in
  check_close 1e-9 "follows demand 0" 20. (Schedule.rate_at s 0);
  check_close 1e-9 "follows demand 1" 5. (Schedule.rate_at s 1);
  check_close 1e-9 "follows demand 3" 20. (Schedule.rate_at s 3)

let test_optimal_feasible_no_loss () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:3_000 ~seed:4 () in
  let params = Optimal.default_params ~cost_ratio:1e5 trace in
  let s = Optimal.solve params trace in
  (match params.Optimal.constraint_ with
  | Optimal.Buffer_bound b ->
      let r = Schedule.simulate_buffer s ~trace ~capacity:b in
      check_close 1e-12 "no loss" 0. r.Fluid.bits_lost
  | Optimal.Delay_bound _ -> Alcotest.fail "expected buffer bound");
  Alcotest.(check bool) "schedule spans trace" true
    (Schedule.n_slots s = Trace.length trace)

let test_optimal_infeasible_raises () =
  let grid = Rate_grid.of_rates [| 1. |] in
  let trace = Trace.create ~fps:1. [| 100.; 100. |] in
  let params =
    {
      Optimal.grid;
      reneg_cost = 1.;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Buffer_bound 10.;
    }
  in
  Alcotest.(check bool) "raises Infeasible" true
    (try
       ignore (Optimal.solve params trace);
       false
     with Optimal.Infeasible _ -> true)

let test_optimal_cost_ratio_tradeoff () =
  (* Raising the renegotiation price must not increase the renegotiation
     count (Fig. 2's tradeoff). *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:3_000 ~seed:8 () in
  let renegs ratio =
    let p = Optimal.default_params ~cost_ratio:ratio trace in
    Schedule.n_renegotiations (Optimal.solve p trace)
  in
  let cheap = renegs 1e4 and dear = renegs 1e6 in
  Alcotest.(check bool) "fewer renegotiations when dearer" true (dear <= cheap);
  Alcotest.(check bool) "cheap renegotiates a lot" true (cheap > 10)

let test_optimal_efficiency_close_to_one () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:5_000 ~seed:15 () in
  let p = Optimal.default_params ~cost_ratio:1e5 trace in
  let s = Optimal.solve p trace in
  Alcotest.(check bool) "efficiency above 0.9" true
    (Schedule.bandwidth_efficiency s ~trace > 0.9)

let test_optimal_delay_bound () =
  let grid = Rate_grid.of_rates [| 5.; 10.; 20. |] in
  let trace = Trace.create ~fps:1. [| 0.; 18.; 18.; 2.; 2.; 0. |] in
  let d = 1 in
  let params =
    {
      Optimal.grid;
      reneg_cost = 4.;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Delay_bound d;
    }
  in
  let s = Optimal.solve params trace in
  (* Check the delay constraint via cumulative sums: arrivals through t
     must depart by t + d. *)
  let rates = Schedule.to_rates s in
  let n = Trace.length trace in
  let arr = Array.make (n + 1) 0. and srv = Array.make (n + 1) 0. in
  for t = 0 to n - 1 do
    arr.(t + 1) <- arr.(t) +. Trace.frame trace t;
    srv.(t + 1) <- srv.(t) +. rates.(t)
  done;
  for t = 0 to n - 1 - d do
    Alcotest.(check bool) "delay met" true (srv.(t + d + 1) >= arr.(t + 1) -. 1e-9)
  done

let test_optimal_stats () =
  let trace = Trace.create ~fps:1. [| 1.; 2.; 3. |] in
  let grid = Rate_grid.of_rates [| 1.; 2.; 3. |] in
  let params =
    {
      Optimal.grid;
      reneg_cost = 1.;
      bandwidth_cost = 1.;
      constraint_ = Optimal.Buffer_bound 5.;
    }
  in
  let _, stats = Optimal.solve_with_stats params trace in
  Alcotest.(check int) "slots" 3 stats.Optimal.slots;
  Alcotest.(check bool) "expanded > 0" true (stats.Optimal.expanded > 0);
  Alcotest.(check bool) "frontier > 0" true (stats.Optimal.max_frontier > 0)

(* --- Optimal: golden digests --- *)

(* Digests of the trellis over a grid of solver configurations on a
   400-frame synthetic trace: exact solves at 5, 10 and 20 levels with
   and without Lemma 1, both approximation knobs, the delay bound, free
   renegotiation, the beam and a receding-horizon start level.  Each
   digest covers the schedule's segments (start slot and rate bits) and
   the node counters, so any change to which nodes the trellis expands,
   prunes or keeps must leave all of them intact. *)
let trellis_digest schedule (st : Optimal.stats) beam =
  let b = Buffer.create 1024 in
  Array.iter
    (fun s ->
      Printf.bprintf b "%d:%Lx;" s.Schedule.start_slot
        (Int64.bits_of_float s.Schedule.rate))
    (Schedule.segments schedule);
  Printf.bprintf b "%d;%d;%d;%d;" st.Optimal.expanded st.Optimal.max_frontier
    st.Optimal.pruned_by_lemma st.Optimal.pruned_by_cap;
  Option.iter
    (fun (c : Beam.stats) ->
      Printf.bprintf b "%d;%d;%d;" c.Beam.kept c.Beam.dropped_by_beam
        c.Beam.prior_hits)
    beam;
  Digest.to_hex (Digest.string (Buffer.contents b))

let trellis_golden_runs () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:400 ~seed:3 () in
  let params ?(levels = 20) ?(alpha = 2e5) () =
    Optimal.default_params ~levels ~cost_ratio:alpha trace
  in
  let exact label ?lemma_pruning ?frontier_cap p =
    let s, st = Optimal.solve_with_stats ?lemma_pruning ?frontier_cap p trace in
    (label, st, trellis_digest s st None)
  in
  let beam label ~beam_width p =
    let prior = Beam.of_trace ~grid:p.Optimal.grid trace in
    let s, st = Beam.solve_with_stats ~beam_width ~prior p trace in
    (label, st.Beam.base, trellis_digest s st.Beam.base (Some st))
  in
  (* The receding-horizon controller's call: a compiled prior and a
     rate already in force. *)
  let beam_from label ~start_level ~beam_width p =
    let prior = Beam.of_trace ~grid:p.Optimal.grid trace in
    let beam =
      Beam.compile ~grid:p.Optimal.grid ~beam_width
        ~prior_weight:(Beam.default_prior_weight p trace)
        prior
    in
    let s, base, c = Optimal.solve_raw ~beam ~start_level p trace in
    let st =
      {
        Beam.base;
        kept = c.Optimal.kept;
        dropped_by_beam = c.Optimal.dropped_by_beam;
        prior_hits = c.Optimal.prior_hits;
      }
    in
    (label, base, trellis_digest s base (Some st))
  in
  List.concat_map
    (fun levels ->
      List.map
        (fun lemma_pruning ->
          exact
            (Printf.sprintf "M%d lemma %b" levels lemma_pruning)
            ~lemma_pruning (params ~levels ()))
        [ true; false ])
    [ 5; 10; 20 ]
  @ [
      exact "M20 cap 2" ~frontier_cap:2 (params ~alpha:1e4 ());
      exact "M20 cap 100" ~frontier_cap:100 (params ~alpha:1e4 ());
      exact "M20 delay 12"
        { (params ()) with Optimal.constraint_ = Optimal.Delay_bound 12 };
      exact "M20 K 0" (params ~alpha:0. ());
      beam "M50 beam 2" ~beam_width:2 (params ~levels:50 ());
      beam "M50 beam 8" ~beam_width:8 (params ~levels:50 ());
      beam_from "M50 beam 8 start 25" ~start_level:25 ~beam_width:8
        (params ~levels:50 ());
    ]

let trellis_golden =
  [
    ("M5 lemma true", "4ae6c9e3d08e3438c4537605402c5ea7");
    ("M5 lemma false", "2b5c3e8587333f96b345fa04edafad50");
    ("M10 lemma true", "02216ac27963fd8b6b54a927c7a6365f");
    ("M10 lemma false", "fbc6df7f1d51d2e5e9c11fea803d9280");
    ("M20 lemma true", "3b69f819723e5e9ffedc5a9c194c00f6");
    ("M20 lemma false", "9c00f8eceaa84b991445da3aede4ceb5");
    ("M20 cap 2", "bb805be9a51164b2ecddf2aa798f8c98");
    ("M20 cap 100", "c46ccb05703f460b6bcdf0c4acf86e29");
    ("M20 delay 12", "b4abd822440061321f1baa271f5e9d2f");
    ("M20 K 0", "9adbcfce87893bbe8bd07181191d6538");
    ("M50 beam 2", "9cadcaa6b02a07f7fb9eb22ea31fa5f0");
    ("M50 beam 8", "35e35e949b59bebd9fa20b2f82346813");
    ("M50 beam 8 start 25", "cea97304fedc3af96c1cb678dee400d1");
  ]

let test_trellis_golden_digests () =
  let runs = trellis_golden_runs () in
  let exercises f = List.exists (fun (_, st, _) -> f st > 0) runs in
  Alcotest.(check bool) "the grid prunes by Lemma 1" true
    (exercises (fun st -> st.Optimal.pruned_by_lemma));
  Alcotest.(check bool) "the grid prunes by the cap" true
    (exercises (fun st -> st.Optimal.pruned_by_cap));
  Alcotest.(check (list (pair string string)))
    "digests" trellis_golden
    (List.map (fun (label, _, d) -> (label, d)) runs)

(* --- Optimal: randomized exhaustive cross-check --- *)

(* The trellis's cost must equal exhaustive search on the grid [rates]
   for every drawn (frames, K, buffer). *)
let matches_brute_force ~name ?print ~rates gen =
  QCheck.Test.make ~name ~count:150 (QCheck.make ?print gen)
    (fun (frames, reneg_cost, buffer) ->
      let grid = Rate_grid.of_rates rates in
      let trace = Trace.create ~fps:1. frames in
      let params =
        {
          Optimal.grid;
          reneg_cost;
          bandwidth_cost = 1.;
          constraint_ = Optimal.Buffer_bound buffer;
        }
      in
      let expected =
        brute_force ~grid ~reneg_cost ~bandwidth_cost:1. ~buffer trace
      in
      match Optimal.solve params trace with
      | s ->
          let got = Schedule.cost s ~reneg_cost ~bandwidth_cost:1. in
          Float.abs (got -. expected) < 1e-6
      | exception Optimal.Infeasible _ -> Float.equal expected infinity)

let prop_optimal_matches_brute_force =
  matches_brute_force ~name:"trellis equals exhaustive search"
    ~rates:[| 5.; 12.; 25. |]
    QCheck.Gen.(
      let* n = int_range 3 7 in
      let* frames = array_size (return n) (float_range 0. 25.) in
      let* k = int_range 1 20 in
      let* b = float_range 5. 40. in
      return (frames, float_of_int k, b))

(* Six levels, so the merge of per-level frontiers into the envelope is
   a real M-way merge.  Frames are whole numbers and often below the
   lowest rate, so several levels drain the buffer to 0 (or to the same
   whole number) in one slot: equal buffers across levels, the merge's
   tie case. *)
let prop_optimal_matches_brute_force_many_levels =
  matches_brute_force ~name:"six-level trellis with ties equals exhaustive search"
    ~print:(fun (frames, k, b) ->
      Printf.sprintf "frames=[|%s|] reneg=%g buffer=%g"
        (String.concat "; " (Array.to_list (Array.map string_of_float frames)))
        k b)
    ~rates:[| 4.; 8.; 12.; 16.; 24.; 32. |]
    QCheck.Gen.(
      let* n = int_range 3 5 in
      let* frames =
        array_size (return n)
          (map float_of_int
             (frequency [ (2, int_range 0 4); (3, int_range 5 40) ]))
      in
      let* k = int_range 1 20 in
      let* b = int_range 5 40 in
      return (frames, float_of_int k, float_of_int b))

(* Brute force with the delay-bound constraint of formula (5). *)
let brute_force_delay ~grid ~reneg_cost ~bandwidth_cost ~delay trace =
  let m = Rate_grid.levels grid in
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let prefix = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. Trace.frame trace i
  done;
  let bound t = prefix.(t + 1) -. prefix.(max 0 (t - delay + 1)) in
  let best = ref infinity in
  let rec go t level buffer_occ cost =
    if cost >= !best then ()
    else if t = n then best := Float.min !best cost
    else
      for l = 0 to m - 1 do
        let change = if t > 0 && l <> level then reneg_cost else 0. in
        let b =
          Float.max 0.
            (buffer_occ +. Trace.frame trace t -. (Rate_grid.rate grid l *. tau))
        in
        if b <= bound t +. 1e-9 then
          go (t + 1) l b
            (cost +. change +. (bandwidth_cost *. Rate_grid.rate grid l *. tau))
      done
  in
  go 0 (-1) 0. 0.;
  !best

let prop_optimal_delay_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 7 in
      let* frames = array_size (return n) (float_range 0. 25.) in
      let* k = int_range 1 15 in
      let* d = int_range 0 3 in
      return (frames, float_of_int k, d))
  in
  QCheck.Test.make ~name:"delay-bound trellis equals exhaustive search"
    ~count:120 (QCheck.make gen) (fun (frames, reneg_cost, delay) ->
      let grid = Rate_grid.of_rates [| 5.; 12.; 25. |] in
      let trace = Trace.create ~fps:1. frames in
      let params =
        {
          Optimal.grid;
          reneg_cost;
          bandwidth_cost = 1.;
          constraint_ = Optimal.Delay_bound delay;
        }
      in
      let expected =
        brute_force_delay ~grid ~reneg_cost ~bandwidth_cost:1. ~delay trace
      in
      match Optimal.solve params trace with
      | s ->
          let got = Schedule.cost s ~reneg_cost ~bandwidth_cost:1. in
          Float.abs (got -. expected) < 1e-6
      | exception Optimal.Infeasible _ -> Float.equal expected infinity)

let prop_shift_marginal_invariant =
  let gen =
    QCheck.Gen.(
      let* n = int_range 4 40 in
      let* k = int_range 0 60 in
      let* rates = array_size (int_range 1 5) (float_range 1. 9.) in
      return (n, k, rates))
  in
  QCheck.Test.make ~name:"shift preserves the rate marginal" ~count:150
    (QCheck.make gen) (fun (n, k, rates) ->
      let segs =
        List.filteri
          (fun i _ -> i * 3 < n)
          (Array.to_list (Array.mapi (fun i r -> (i * 3, r)) rates))
        |> List.map (fun (start_slot, rate) -> { Schedule.start_slot; rate })
      in
      let s = Schedule.create ~fps:1. ~n_slots:n segs in
      let sorted m = List.sort compare (Array.to_list m) in
      List.equal
        (fun (r1, p1) (r2, p2) -> Float.equal r1 r2 && Float.equal p1 p2)
        (sorted (Schedule.marginal s))
        (sorted (Schedule.marginal (Schedule.shift s ~slots:k))))

let prop_optimal_schedule_feasible =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 30 in
      let* frames = array_size (return n) (float_range 0. 25.) in
      return frames)
  in
  QCheck.Test.make ~name:"trellis schedules never overflow" ~count:100
    (QCheck.make gen) (fun frames ->
      let grid = Rate_grid.of_rates [| 5.; 12.; 25. |] in
      let trace = Trace.create ~fps:1. frames in
      let buffer = 30. in
      let params =
        {
          Optimal.grid;
          reneg_cost = 3.;
          bandwidth_cost = 1.;
          constraint_ = Optimal.Buffer_bound buffer;
        }
      in
      match Optimal.solve params trace with
      | s ->
          let r = Schedule.simulate_buffer s ~trace ~capacity:buffer in
          Float.equal r.Fluid.bits_lost 0.
      | exception Optimal.Infeasible _ -> true)

(* --- Optimal: approximation knobs ----------------------------------- *)

(* [frontier_cap] must always return a feasible schedule whose cost is
   never below the exact optimum.  It keeps exact buffers and costs for
   the retained paths, so the error does not compound; on these small
   traces even cap = 2 stays within 2x the exact cost (empirically it
   is almost always 1x). *)

let approx_gen =
  QCheck.Gen.(
    let* n = int_range 3 10 in
    let* frames = array_size (return n) (float_range 0. 25.) in
    let* k = int_range 1 15 in
    return (frames, float_of_int k))

let approx_print (frames, k) =
  Printf.sprintf "frames=[|%s|] reneg=%g"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.17g") frames)))
    k

let approx_buffer = 30.

let approx_params reneg_cost =
  {
    Optimal.grid = Rate_grid.of_rates [| 5.; 12.; 25. |];
    reneg_cost;
    bandwidth_cost = 1.;
    constraint_ = Optimal.Buffer_bound approx_buffer;
  }

let schedule_cost ~reneg_cost s =
  Schedule.cost s ~reneg_cost ~bandwidth_cost:1.

(* Harness: [knob params trace] runs the approximate solver;
   [upper params trace] returns the bound its cost must stay under
   (None: the bound's reference problem is itself infeasible, so only
   feasibility and cost >= exact are required). *)
let check_knob ~name ~knob ~upper =
  QCheck.Test.make ~name ~count:150 (QCheck.make ~print:approx_print approx_gen)
    (fun (frames, reneg_cost) ->
      let trace = Trace.create ~fps:1. frames in
      let params = approx_params reneg_cost in
      match Optimal.solve params trace with
      | exception Optimal.Infeasible _ -> true
      | exact_s -> (
          let exact = schedule_cost ~reneg_cost exact_s in
          match knob params trace with
          | exception Optimal.Infeasible _ ->
              (* Allowed only when the bound's reference problem is
                 infeasible too. *)
              upper params trace = None
          | s, _ ->
              let r =
                Schedule.simulate_buffer s ~trace ~capacity:approx_buffer
              in
              let cost = schedule_cost ~reneg_cost s in
              Float.equal r.Fluid.bits_lost 0.
              && cost >= exact -. 1e-9
              &&
              (match upper params trace with
              | None -> true
              | Some bound -> cost <= bound +. 1e-9)))

let prop_frontier_cap_feasible_bounded =
  check_knob ~name:"frontier_cap=2: feasible, exact <= cost <= 2x exact"
    ~knob:(fun params trace ->
      Optimal.solve_with_stats ~frontier_cap:2 params trace)
    ~upper:(fun params trace ->
      match Optimal.solve params trace with
      | s -> Some (2. *. schedule_cost ~reneg_cost:params.Optimal.reneg_cost s)
      | exception Optimal.Infeasible _ -> None)

let test_frontier_cap_large_is_exact () =
  (* A cap bigger than any frontier must not change the solution. *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:800 ~seed:11 () in
  let params = Optimal.default_params ~cost_ratio:1e5 trace in
  let exact = Optimal.solve params trace in
  let capped, _ = Optimal.solve_with_stats ~frontier_cap:100_000 params trace in
  Alcotest.(check (array (float 0.)))
    "identical schedules" (Schedule.to_rates exact) (Schedule.to_rates capped)

(* --- Beam search (DESIGN.md section 13) --- *)

let beam_gen =
  QCheck.Gen.(
    let* n = int_range 3 30 in
    let* frames = array_size (return n) (float_range 0. 25.) in
    let* k = int_range 1 20 in
    let* b = float_range 5. 60. in
    return (frames, float_of_int k, b))

let beam_print (frames, reneg_cost, buffer) =
  Format.asprintf "frames [|%s|], reneg %.0f, buffer %.2f"
    (String.concat "; "
       (List.map (Printf.sprintf "%.3f") (Array.to_list frames)))
    reneg_cost buffer

let beam_params reneg_cost buffer =
  {
    Optimal.grid = Rate_grid.of_rates [| 5.; 9.; 12.; 18.; 25. |];
    reneg_cost;
    bandwidth_cost = 1.;
    constraint_ = Optimal.Buffer_bound buffer;
  }

let prop_beam_unbounded_is_exact =
  (* beam_width = max_int + uniform prior must BE the exact solver:
     same schedule bit for bit, same node count, nothing dropped, and
     Infeasible raised exactly when the exact solver raises it. *)
  QCheck.Test.make ~name:"beam at max_int width is bit-identical to exact"
    ~count:150
    (QCheck.make ~print:beam_print beam_gen)
    (fun (frames, reneg_cost, buffer) ->
      let trace = Trace.create ~fps:1. frames in
      let params = beam_params reneg_cost buffer in
      match Optimal.solve_with_stats params trace with
      | exception Optimal.Infeasible _ -> (
          match
            Beam.solve_with_stats ~beam_width:max_int ~prior:Beam.Uniform
              params trace
          with
          | exception Optimal.Infeasible _ -> true
          | _ -> false)
      | exact, est ->
          let got, st =
            Beam.solve_with_stats ~beam_width:max_int ~prior:Beam.Uniform
              params trace
          in
          List.equal Float.equal
            (Array.to_list (Schedule.to_rates got))
            (Array.to_list (Schedule.to_rates exact))
          && st.Beam.dropped_by_beam = 0
          && st.Beam.base.Optimal.expanded = est.Optimal.expanded)

let test_beam_trace_prior_gap () =
  (* A narrow beam under the trace-learned prior on a real synthetic
     trace: feasible, costs at least the optimum, lands near it, and
     actually exercises the beam (drops nodes, walks observed
     transitions). *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:600 ~seed:11 () in
  let params = Optimal.default_params ~levels:30 ~cost_ratio:2e5 trace in
  let exact = Optimal.solve params trace in
  let prior = Beam.of_trace ~grid:params.Optimal.grid trace in
  let s, st = Beam.solve_with_stats ~beam_width:16 ~prior params trace in
  let r = Schedule.simulate_buffer s ~trace ~capacity:300_000. in
  Alcotest.(check bool) "no loss" true (Float.equal r.Fluid.bits_lost 0.);
  let c = Schedule.cost s ~reneg_cost:2e5 ~bandwidth_cost:1. in
  let ce = Schedule.cost exact ~reneg_cost:2e5 ~bandwidth_cost:1. in
  Alcotest.(check bool) "cost >= exact" true (c >= ce -. 1e-6);
  Alcotest.(check bool) "within 25% of exact" true (c <= 1.25 *. ce);
  Alcotest.(check bool) "beam dropped nodes" true (st.Beam.dropped_by_beam > 0);
  Alcotest.(check bool) "prior hits" true (st.Beam.prior_hits > 0)

(* The [--beam-prior] grammar every CLI shares: each name parses,
   prints back and builds its prior; an unknown one is refused with the
   message the CLIs show. *)
let test_beam_prior_specs () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:300 ~seed:5 () in
  let grid =
    (Optimal.default_params ~levels:30 ~cost_ratio:2e5 trace).Optimal.grid
  in
  let build name =
    match Beam.prior_spec_of_string name with
    | Error msg -> Alcotest.failf "%s rejected: %s" name msg
    | Ok spec ->
        Alcotest.(check string) (name ^ " prints back") name
          (Format.asprintf "%a" Beam.pp_prior_spec spec);
        Beam.prior_of_spec ~grid trace spec
  in
  let tables p =
    let b = Beam.compile ~grid ~beam_width:1 ~prior_weight:1. p in
    Array.append [| b.Optimal.log_init |] b.Optimal.log_trans
  in
  let same name expected got =
    Alcotest.(check (array (array (float 0.))))
      name (tables expected) (tables got)
  in
  (match build "uniform" with
  | Beam.Uniform -> ()
  | Beam.Table _ -> Alcotest.fail "uniform built a table");
  same "trace learns the trace" (Beam.of_trace ~grid trace) (build "trace");
  let flat =
    Rcbr_markov.Multiscale.flatten
      Rcbr_traffic.Synthetic.(to_multiscale star_wars_params)
  in
  let rates =
    Array.map (fun r -> r *. Trace.fps trace) (Rcbr_markov.Modulated.rates flat)
  in
  same "chain learns the Star Wars model"
    (Beam.of_chain ~grid ~rates (Rcbr_markov.Modulated.chain flat))
    (build "chain");
  Alcotest.(check (result reject string))
    "unknown name" (Error {|unknown prior "Trace" (trace|chain|uniform)|})
    (Result.map (fun _ -> ()) (Beam.prior_spec_of_string "Trace"))

let test_receding_controller () =
  (* Structural invariants of the receding-horizon loop on a synthetic
     trace: windows get solved, the buffer cap holds, and the schedule
     spans the whole trace. *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:800 ~seed:7 () in
  let buffer = 300_000. in
  let opt = Optimal.default_params ~levels:30 ~buffer ~cost_ratio:2e5 trace in
  let opt = { opt with Optimal.constraint_ = Optimal.Buffer_bound 150_000. } in
  let o, st =
    Online.run_receding ~buffer Online.default_params ~opt ~horizon:12
      ~predictor:(Predictor.ar1 ~eta:0.9) trace
  in
  Alcotest.(check bool) "windows solved" true (st.Online.solves > 0);
  Alcotest.(check bool) "nodes expanded" true (st.Online.expanded > 0);
  Alcotest.(check bool) "backlog capped" true (o.Online.max_backlog <= buffer);
  Alcotest.(check int) "predictions span trace" (Trace.length trace)
    (Array.length o.Online.predictions);
  Alcotest.(check bool) "renegotiates" true
    (Schedule.n_renegotiations o.Online.schedule > 0)

(* --- Online heuristic --- *)

let test_online_constant_traffic () =
  (* Constant traffic: after warmup the heuristic must settle on one
     quantized rate and stop renegotiating. *)
  let trace = Trace.create ~fps:1. (Array.make 200 10.) in
  let p =
    {
      Online.b_low = 2.;
      b_high = 20.;
      flush_slots = 5;
      granularity = 5.;
      ar_coefficient = 0.8;
      use_flush_term = true;
    }
  in
  let o = Online.run p trace in
  Alcotest.(check bool) "few renegotiations" true
    (Schedule.n_renegotiations o.Online.schedule <= 3);
  check_close 1e-9 "settles on quantized demand" 10.
    (Schedule.rate_at o.Online.schedule 199)

let test_online_reacts_to_burst () =
  (* A big sustained burst must push the rate up. *)
  let frames = Array.append (Array.make 50 5.) (Array.make 50 50.) in
  let trace = Trace.create ~fps:1. frames in
  let p =
    {
      Online.b_low = 2.;
      b_high = 10.;
      flush_slots = 5;
      granularity = 5.;
      ar_coefficient = 0.8;
      use_flush_term = true;
    }
  in
  let o = Online.run p trace in
  Alcotest.(check bool) "rate raised during burst" true
    (Schedule.rate_at o.Online.schedule 80 >= 50.)

let test_online_rate_comes_down () =
  let frames = Array.concat [ Array.make 30 50.; Array.make 100 5. ] in
  let trace = Trace.create ~fps:1. frames in
  let p =
    {
      Online.b_low = 2.;
      b_high = 10.;
      flush_slots = 5;
      granularity = 5.;
      ar_coefficient = 0.8;
      use_flush_term = true;
    }
  in
  let o = Online.run p trace in
  Alcotest.(check bool) "rate lowered after burst" true
    (Schedule.rate_at o.Online.schedule 120 <= 10.)

let test_online_granularity_tradeoff () =
  (* Coarser granularity cannot renegotiate more often (Fig. 2 right
     side of the heuristic curve). *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:5_000 ~seed:33 () in
  let run delta =
    let p = { Online.default_params with Online.granularity = delta } in
    Schedule.n_renegotiations (Online.run p trace).Online.schedule
  in
  Alcotest.(check bool) "coarse <= fine" true (run 400_000. <= run 25_000.)

let test_online_flush_ablation () =
  (* Without the flush term the buffer should climb higher on bursts. *)
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:5_000 ~seed:37 () in
  let backlog use_flush_term =
    let p = { Online.default_params with Online.use_flush_term } in
    (Online.run p trace).Online.max_backlog
  in
  Alcotest.(check bool) "flush term reduces peak backlog" true
    (backlog true <= backlog false)

let test_online_deterministic () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:2_000 ~seed:39 () in
  let a = Online.run Online.default_params trace in
  let b = Online.run Online.default_params trace in
  Alcotest.(check int) "same schedule"
    (Schedule.n_renegotiations a.Online.schedule)
    (Schedule.n_renegotiations b.Online.schedule);
  check_close 1e-12 "same backlog" a.Online.max_backlog b.Online.max_backlog

let test_online_predictions_length () =
  let trace = Trace.create ~fps:1. (Array.make 17 3.) in
  let o = Online.run Online.default_params trace in
  Alcotest.(check int) "one prediction per slot" 17
    (Array.length o.Online.predictions)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_core"
    [
      ( "schedule",
        [
          Alcotest.test_case "basic" `Quick test_schedule_basic;
          Alcotest.test_case "to_rates" `Quick test_schedule_to_rates_matches_rate_at;
          Alcotest.test_case "merges equal" `Quick test_schedule_merges_equal_rates;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "cost" `Quick test_schedule_cost;
          Alcotest.test_case "marginal" `Quick test_schedule_marginal;
          Alcotest.test_case "shift" `Quick test_schedule_shift;
          Alcotest.test_case "constant" `Quick test_schedule_constant;
          Alcotest.test_case "pp one-line header" `Quick test_schedule_pp;
          Alcotest.test_case "efficiency" `Quick test_bandwidth_efficiency;
        ] );
      ( "rate_grid",
        [
          Alcotest.test_case "uniform" `Quick test_grid_uniform;
          Alcotest.test_case "quantize" `Quick test_grid_quantize;
          Alcotest.test_case "covering" `Quick test_grid_covering;
          Alcotest.test_case "paper default" `Quick test_grid_paper_default;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_optimal_matches_brute_force_hand;
          Alcotest.test_case "expensive renegotiation" `Quick
            test_optimal_prefers_single_rate_when_renegotiation_expensive;
          Alcotest.test_case "free renegotiation" `Quick
            test_optimal_tracks_when_renegotiation_free;
          Alcotest.test_case "feasible (no loss)" `Quick test_optimal_feasible_no_loss;
          Alcotest.test_case "infeasible raises" `Quick test_optimal_infeasible_raises;
          Alcotest.test_case "cost-ratio tradeoff" `Quick
            test_optimal_cost_ratio_tradeoff;
          Alcotest.test_case "efficiency" `Quick test_optimal_efficiency_close_to_one;
          Alcotest.test_case "delay bound" `Quick test_optimal_delay_bound;
          Alcotest.test_case "stats" `Quick test_optimal_stats;
          Alcotest.test_case "trellis golden digests" `Quick
            test_trellis_golden_digests;
        ] );
      ( "online",
        [
          Alcotest.test_case "constant traffic" `Quick test_online_constant_traffic;
          Alcotest.test_case "reacts to burst" `Quick test_online_reacts_to_burst;
          Alcotest.test_case "rate comes down" `Quick test_online_rate_comes_down;
          Alcotest.test_case "granularity tradeoff" `Quick
            test_online_granularity_tradeoff;
          Alcotest.test_case "flush ablation" `Quick test_online_flush_ablation;
          Alcotest.test_case "deterministic" `Quick test_online_deterministic;
          Alcotest.test_case "predictions length" `Quick
            test_online_predictions_length;
        ] );
      ( "approximation knobs",
        [
          Alcotest.test_case "loose cap is exact" `Quick
            test_frontier_cap_large_is_exact;
        ] );
      ( "beam",
        [
          Alcotest.test_case "trace prior gap" `Quick test_beam_trace_prior_gap;
          Alcotest.test_case "prior specs" `Quick test_beam_prior_specs;
          Alcotest.test_case "receding controller" `Quick
            test_receding_controller;
        ] );
      ( "properties",
        q
          [
            prop_optimal_matches_brute_force;
            prop_optimal_matches_brute_force_many_levels;
            prop_optimal_delay_matches_brute_force;
            prop_shift_marginal_invariant;
            prop_optimal_schedule_feasible;
            prop_frontier_cap_feasible_bounded;
            prop_beam_unbounded_is_exact;
          ] );
    ]
