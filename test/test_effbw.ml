(* Unit and property tests for Rcbr_effbw: large-deviations machinery. *)

module Eb = Rcbr_effbw.Effective_bandwidth
module Chernoff = Rcbr_effbw.Chernoff
module Chain = Rcbr_markov.Chain
module Modulated = Rcbr_markov.Modulated
module Multiscale = Rcbr_markov.Multiscale

let check_close eps = Alcotest.(check (float eps))

let two_state_source p q ~low ~high =
  Modulated.create
    (Chain.create [| [| 1. -. p; p |]; [| q; 1. -. q |] |])
    ~rates:[| low; high |]

(* Closed-form log-MGF of a 2-state Markov additive process: log of the
   largest eigenvalue of diag(e^{theta r}) P. *)
let closed_form_log_mgf ~p ~q ~low ~high theta =
  let a = exp (theta *. low) *. (1. -. p) in
  let b = exp (theta *. low) *. p in
  let c = exp (theta *. high) *. q in
  let d = exp (theta *. high) *. (1. -. q) in
  let tr = a +. d and det = (a *. d) -. (b *. c) in
  log ((tr +. sqrt ((tr *. tr) -. (4. *. det))) /. 2.)

let test_log_mgf_zero () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  check_close 1e-12 "Lambda(0)=0" 0. (Eb.log_mgf m ~theta:0.)

let test_log_mgf_closed_form () =
  let p = 0.2 and q = 0.3 and low = 1. and high = 5. in
  let m = two_state_source p q ~low ~high in
  List.iter
    (fun theta ->
      check_close 1e-6 "matches eigenvalue formula"
        (closed_form_log_mgf ~p ~q ~low ~high theta)
        (Eb.log_mgf m ~theta))
    [ 0.1; 0.5; 1.0; 2.0; -0.5 ]

let test_log_mgf_constant_source () =
  (* A deterministic source: Lambda(theta) = theta * rate. *)
  let m = Modulated.create (Chain.create [| [| 1. |] |]) ~rates:[| 7. |] in
  check_close 1e-9 "deterministic" 14. (Eb.log_mgf m ~theta:2.)

let test_effective_bandwidth_limits () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  let mean = Modulated.mean_rate m in
  let peak = Modulated.peak_rate m in
  let small = Eb.effective_bandwidth m ~theta:1e-7 in
  let large = Eb.effective_bandwidth m ~theta:50. in
  check_close 1e-3 "theta->0 gives mean" mean small;
  check_close 0.15 "theta->inf approaches peak" peak large;
  Alcotest.(check bool) "between mean and peak" true (small <= large)

let test_effective_bandwidth_monotone () =
  let m = two_state_source 0.1 0.1 ~low:0. ~high:10. in
  let prev = ref 0. in
  List.iter
    (fun theta ->
      let eb = Eb.effective_bandwidth m ~theta in
      Alcotest.(check bool) "nondecreasing in theta" true (eb >= !prev -. 1e-9);
      prev := eb)
    [ 0.01; 0.1; 0.5; 1.; 2.; 5. ]

let test_equivalent_bandwidth_monotone_in_buffer () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  let e1 = Eb.equivalent_bandwidth m ~buffer:1. ~target_loss:1e-6 in
  let e2 = Eb.equivalent_bandwidth m ~buffer:10. ~target_loss:1e-6 in
  let e3 = Eb.equivalent_bandwidth m ~buffer:100. ~target_loss:1e-6 in
  Alcotest.(check bool) "larger buffer needs less" true (e1 >= e2 && e2 >= e3)

let test_equivalent_bandwidth_monotone_in_loss () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  let strict = Eb.equivalent_bandwidth m ~buffer:10. ~target_loss:1e-9 in
  let lax = Eb.equivalent_bandwidth m ~buffer:10. ~target_loss:1e-2 in
  Alcotest.(check bool) "stricter loss needs more" true (strict >= lax)

let test_decay_rate_inverse () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  let rate = 4.0 in
  let theta = Eb.decay_rate m ~rate in
  check_close 1e-6 "EB(decay_rate(c)) = c" rate
    (Eb.effective_bandwidth m ~theta)

let test_decay_rate_extremes () =
  let m = two_state_source 0.2 0.3 ~low:1. ~high:5. in
  Alcotest.(check bool) "at peak infinite" true
    (Float.equal (Eb.decay_rate m ~rate:5.) infinity);
  check_close 1e-12 "below mean zero" 0.
    (Eb.decay_rate m ~rate:(Modulated.mean_rate m *. 0.5))

(* --- Multiscale equivalent bandwidth (formula 9) --- *)

let test_multiscale_formula9 () =
  let ms = Multiscale.fig4_example () in
  let per = Eb.subchain_equivalent_bandwidths ms ~buffer:5. ~target_loss:1e-6 in
  let total = Eb.multiscale_equivalent_bandwidth ms ~buffer:5. ~target_loss:1e-6 in
  check_close 1e-12 "max over subchains" (Array.fold_left Float.max 0. per) total;
  (* The worst subchain (action) should dominate. *)
  Alcotest.(check bool) "action dominates" true (Float.equal total per.(2))

let test_multiscale_exceeds_worst_mean () =
  (* Formula (9) implies the needed rate exceeds the max subchain mean. *)
  let ms = Multiscale.fig4_example () in
  let means = Multiscale.subchain_mean_rates ms in
  let worst_mean = Array.fold_left Float.max 0. means in
  let total = Eb.multiscale_equivalent_bandwidth ms ~buffer:50. ~target_loss:1e-6 in
  Alcotest.(check bool) "above max subchain mean" true (total > worst_mean)

let test_multiscale_vs_flattened_mean () =
  (* The multiscale equivalent bandwidth is far above the overall mean —
     the "wasteful static descriptor" effect of Section II. *)
  let ms = Multiscale.fig4_example () in
  let total = Eb.multiscale_equivalent_bandwidth ms ~buffer:20. ~target_loss:1e-6 in
  Alcotest.(check bool) "far above overall mean" true
    (total > 2. *. Multiscale.mean_rate ms)

(* --- Chernoff --- *)

let simple_marginal () = [| (0.7, 1.); (0.3, 5.) |]

let test_chernoff_validate () =
  Chernoff.validate (simple_marginal ());
  Alcotest.check_raises "sum != 1"
    (Invalid_argument "Chernoff: probabilities do not sum to 1") (fun () ->
      Chernoff.validate [| (0.5, 1.) |]);
  Alcotest.check_raises "negative"
    (Invalid_argument "Chernoff: negative probability") (fun () ->
      Chernoff.validate [| (-0.5, 1.); (1.5, 2.) |]);
  Alcotest.check_raises "empty" (Invalid_argument "Chernoff: empty marginal")
    (fun () -> Chernoff.validate [||])

let test_chernoff_mean_max () =
  let m = simple_marginal () in
  check_close 1e-12 "mean" 2.2 (Chernoff.mean m);
  check_close 1e-12 "max" 5. (Chernoff.max_level m);
  (* Zero-probability levels do not count toward the max. *)
  check_close 1e-12 "max ignores p=0" 5.
    (Chernoff.max_level [| (1., 5.); (0., 100.) |])

let test_chernoff_log_mgf () =
  let m = simple_marginal () in
  let direct theta = log ((0.7 *. exp theta) +. (0.3 *. exp (5. *. theta))) in
  List.iter
    (fun theta ->
      check_close 1e-9 "log mgf" (direct theta) (Chernoff.log_mgf m ~theta))
    [ 0.; 0.3; 1.; 2. ]

let test_rate_function_regions () =
  let m = simple_marginal () in
  check_close 1e-12 "zero below mean" 0. (Chernoff.rate_function m 2.);
  Alcotest.(check bool) "infinite above max" true
    (Float.equal (Chernoff.rate_function m 6.) infinity);
  let i = Chernoff.rate_function m 4. in
  Alcotest.(check bool) "positive in between" true (i > 0. && i < infinity)

let test_rate_function_at_max () =
  (* I(max) = -log P(max). *)
  let m = simple_marginal () in
  check_close 1e-4 "at max level" (-.log 0.3) (Chernoff.rate_function m 5.)

let test_overflow_estimate () =
  let m = simple_marginal () in
  let p1 = Chernoff.overflow_estimate m ~n:10 ~capacity_per_call:4. in
  let p2 = Chernoff.overflow_estimate m ~n:100 ~capacity_per_call:4. in
  Alcotest.(check bool) "valid probability" true (p1 > 0. && p1 <= 1.);
  Alcotest.(check bool) "more calls, smaller per-call overflow" true (p2 < p1);
  check_close 1e-12 "above max is impossible" 0.
    (Chernoff.overflow_estimate m ~n:10 ~capacity_per_call:10.)

let test_overflow_vs_exact_binomial () =
  (* For an on/off marginal the Chernoff estimate must upper-bound the
     exact binomial tail and be within a polynomial factor of it. *)
  let p_on = 0.3 in
  let m = [| (1. -. p_on, 0.); (p_on, 1.) |] in
  let n = 40 in
  let c = 0.5 in
  (* P(Binomial(40, 0.3) > 20) exactly. *)
  let log_choose n k =
    let acc = ref 0. in
    for i = 1 to k do
      acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
    done;
    !acc
  in
  let exact = ref 0. in
  for k = 21 to n do
    exact :=
      !exact
      +. exp
           (log_choose n k
           +. (float_of_int k *. log p_on)
           +. (float_of_int (n - k) *. log (1. -. p_on)))
  done;
  let estimate = Chernoff.overflow_estimate m ~n ~capacity_per_call:c in
  Alcotest.(check bool) "upper bound" true (estimate >= !exact *. 0.999);
  Alcotest.(check bool) "same order" true (estimate <= !exact *. 100.)

let test_capacity_for_target () =
  let m = simple_marginal () in
  let n = 50 and target = 1e-6 in
  let c = Chernoff.capacity_for_target m ~n ~target in
  Alcotest.(check bool) "meets target" true
    (Chernoff.overflow_estimate m ~n ~capacity_per_call:c <= target);
  Alcotest.(check bool) "above mean" true (c > Chernoff.mean m);
  Alcotest.(check bool) "below max" true (c <= Chernoff.max_level m)

let test_capacity_decreases_with_n () =
  (* The statistical multiplexing gain: more calls need less per-call
     capacity. *)
  let m = simple_marginal () in
  let c10 = Chernoff.capacity_for_target m ~n:10 ~target:1e-6 in
  let c100 = Chernoff.capacity_for_target m ~n:100 ~target:1e-6 in
  let c1000 = Chernoff.capacity_for_target m ~n:1000 ~target:1e-6 in
  Alcotest.(check bool) "decreasing" true (c10 >= c100 && c100 >= c1000);
  (* And it approaches the mean from above. *)
  Alcotest.(check bool) "approaches mean" true
    (c1000 -. Chernoff.mean m < 0.3 *. (c10 -. Chernoff.mean m))

let test_max_calls_boundary () =
  let m = simple_marginal () in
  let capacity = 100. and target = 1e-3 in
  let n = Chernoff.max_calls m ~capacity ~target in
  Alcotest.(check bool) "nonzero" true (n > 0);
  Alcotest.(check bool) "n fits" true
    (Chernoff.overflow_estimate m ~n
       ~capacity_per_call:(capacity /. float_of_int n)
    <= target);
  Alcotest.(check bool) "n+1 does not fit" true
    (Chernoff.overflow_estimate m ~n:(n + 1)
       ~capacity_per_call:(capacity /. float_of_int (n + 1))
    > target)

let test_max_calls_monotone_in_capacity () =
  let m = simple_marginal () in
  let n1 = Chernoff.max_calls m ~capacity:50. ~target:1e-3 in
  let n2 = Chernoff.max_calls m ~capacity:100. ~target:1e-3 in
  Alcotest.(check bool) "more capacity, more calls" true (n2 >= n1)

let test_max_calls_zero_capacity () =
  let m = simple_marginal () in
  Alcotest.(check int) "no capacity, no calls" 0
    (Chernoff.max_calls m ~capacity:0.5 ~target:1e-3)

let test_max_calls_vanishing_mean () =
  (* Each call peaks at 1e-300 of the capacity, so the limit is
     effectively unbounded: the search's upper bound (capacity / mean,
     here 2e300) must clamp to 2^60 rather than wrap to a tiny int. *)
  let m = [| (0.5, 0.); (0.5, 1e-300) |] in
  let cold = Chernoff.max_calls m ~capacity:1. ~target:1e-3 in
  Alcotest.(check int) "cold limit clamps" (1 lsl 60) cold;
  Alcotest.(check int) "warm equals cold" cold
    (Chernoff.Solver.max_calls (Chernoff.Solver.of_marginal m) ~capacity:1.
       ~target:1e-3)

(* --- Chernoff.Solver: warm-started fast path --- *)

module Solver = Chernoff.Solver

let test_solver_matches_cold () =
  (* Every solver query must return the exact float of the cold
     module-level function — this is the numerical contract the
     admission fast path relies on. *)
  let m = simple_marginal () in
  let s = Solver.of_marginal m in
  Alcotest.(check int) "levels" 2 (Solver.n_levels s);
  check_close 0. "mean" (Chernoff.mean m) (Solver.mean s);
  check_close 0. "max level" (Chernoff.max_level m) (Solver.max_level s);
  List.iter
    (fun theta ->
      check_close 0. "log mgf bit-identical" (Chernoff.log_mgf m ~theta)
        (Solver.log_mgf s ~theta))
    [ 0.; 0.3; 1.; 2. ];
  List.iter
    (fun c ->
      check_close 0. "rate function bit-identical"
        (Chernoff.rate_function m c) (Solver.rate_function s c))
    [ 1.5; 2.5; 4.; 5. ];
  check_close 0. "overflow bit-identical"
    (Chernoff.overflow_estimate m ~n:20 ~capacity_per_call:4.)
    (Solver.overflow_estimate s ~n:20 ~capacity_per_call:4.);
  check_close 0. "capacity bit-identical"
    (Chernoff.capacity_for_target m ~n:50 ~target:1e-6)
    (Solver.capacity_for_target s ~n:50 ~target:1e-6)

let test_solver_max_calls_warm () =
  (* Repeated queries exercise the warm-started integer search; each
     answer must equal the cold bisection. *)
  let m = simple_marginal () in
  let s = Solver.of_marginal m in
  List.iter
    (fun (capacity, target) ->
      Alcotest.(check int)
        (Printf.sprintf "capacity %.0f target %g" capacity target)
        (Chernoff.max_calls m ~capacity ~target)
        (Solver.max_calls s ~capacity ~target))
    [
      (100., 1e-3); (100., 1e-3); (101., 1e-3); (99., 1e-3); (200., 1e-3);
      (50., 1e-3); (100., 1e-6); (100., 1e-2); (0.5, 1e-3); (1000., 1e-4);
    ]

(* [admits] must answer [calls + 1 <= max_calls] with one probe. *)
let check_admits s m ~capacity ~target calls =
  Alcotest.(check bool)
    (Printf.sprintf "capacity %g target %g calls %d" capacity target calls)
    (calls + 1 <= Chernoff.max_calls m ~capacity ~target)
    (Solver.admits s ~capacity ~target ~calls)

let test_solver_admits_one_level () =
  (* One level at 2: n calls fit 10 exactly while 10 / n > 2, so the
     limit is 4 (at n = 5 the share equals the mean and overflows). *)
  let m = [| (1., 2.) |] in
  let s = Solver.of_marginal m in
  Alcotest.(check int) "limit" 4 (Chernoff.max_calls m ~capacity:10. ~target:1e-3);
  List.iter (check_admits s m ~capacity:10. ~target:1e-3) [ 0; 1; 3; 4; 5; 6; 7 ];
  let st = Solver.stats s in
  Alcotest.(check int) "one probe per in-range decision" 5 st.Solver.fits_evals

let test_solver_admits_mean_zero () =
  let s = Solver.of_marginal [| (1., 0.) |] in
  List.iter
    (fun calls ->
      Alcotest.(check bool) (Printf.sprintf "admits at %d" calls) true
        (Solver.admits s ~capacity:1. ~target:1e-3 ~calls))
    [ 0; 1; 1_000; max_int - 1 ]

let test_solver_admits_mixed () =
  (* One solver answering [admits] and [max_calls] in turn: neither
     query's warm state may move the other's answer. *)
  let m = simple_marginal () in
  let s = Solver.of_marginal m in
  List.iter
    (fun (capacity, target, calls) ->
      check_admits s m ~capacity ~target calls;
      Alcotest.(check int) "warm limit"
        (Chernoff.max_calls m ~capacity ~target)
        (Solver.max_calls s ~capacity ~target);
      check_admits s m ~capacity ~target (calls + 1))
    [
      (100., 1e-3, 20); (100., 1e-3, 40); (101., 1e-3, 39); (99., 1e-6, 5);
      (200., 1e-2, 70); (50., 1e-4, 0); (0.5, 1e-3, 0); (1000., 1e-4, 399);
    ]

let test_solver_weighted_load () =
  (* reset/push/commit_weighted must normalize raw weights into the same
     distribution as the cold marginal. *)
  let s = Solver.create () in
  Solver.reset s;
  Solver.push s ~level:1. ~weight:7.;
  Solver.push s ~level:3. ~weight:0.;
  (* zero weight skipped *)
  Solver.push s ~level:5. ~weight:3.;
  Solver.commit_weighted s;
  Alcotest.(check int) "zero-weight level skipped" 2 (Solver.n_levels s);
  let m = simple_marginal () in
  check_close 0. "normalized mean" (Chernoff.mean m) (Solver.mean s);
  Alcotest.(check int) "same admission limit"
    (Chernoff.max_calls m ~capacity:100. ~target:1e-3)
    (Solver.max_calls s ~capacity:100. ~target:1e-3)

let test_solver_set_marginal_reuse () =
  (* Reloading a solver must not leak state from the previous marginal. *)
  let s = Solver.of_marginal [| (0.5, 1.); (0.5, 9.) |] in
  ignore (Solver.max_calls s ~capacity:80. ~target:1e-4);
  let m = simple_marginal () in
  Solver.set_marginal s m;
  Alcotest.(check int) "fresh answer after reload"
    (Chernoff.max_calls m ~capacity:80. ~target:1e-4)
    (Solver.max_calls s ~capacity:80. ~target:1e-4);
  let st = Solver.stats s in
  Alcotest.(check bool) "counters accumulate" true
    (st.Solver.mgf_evals > 0 && st.Solver.fits_evals > 0)

(* --- Properties --- *)

let marginal_gen =
  QCheck.Gen.(
    let* k = int_range 2 6 in
    let* ws = array_size (return k) (float_range 0.05 1.) in
    let* levels = array_size (return k) (float_range 0.1 10.) in
    let total = Array.fold_left ( +. ) 0. ws in
    Array.sort Float.compare levels;
    (* Make levels strictly ascending to keep them distinct. *)
    Array.iteri (fun i l -> levels.(i) <- l +. (0.01 *. float_of_int i)) levels;
    return (Array.init k (fun i -> (ws.(i) /. total, levels.(i)))))

let prop_rate_function_nonneg =
  QCheck.Test.make ~name:"rate function is nonnegative" ~count:200
    (QCheck.make marginal_gen) (fun m ->
      let c = Chernoff.mean m +. (0.5 *. (Chernoff.max_level m -. Chernoff.mean m)) in
      Chernoff.rate_function m c >= 0.)

let prop_overflow_decreasing_in_c =
  QCheck.Test.make ~name:"overflow decreasing in capacity" ~count:200
    (QCheck.make marginal_gen) (fun m ->
      let mu = Chernoff.mean m and top = Chernoff.max_level m in
      let c1 = mu +. (0.3 *. (top -. mu)) in
      let c2 = mu +. (0.6 *. (top -. mu)) in
      Chernoff.overflow_estimate m ~n:20 ~capacity_per_call:c2
      <= Chernoff.overflow_estimate m ~n:20 ~capacity_per_call:c1 +. 1e-12)

let prop_solver_decisions_equal_cold =
  (* Property (b) of the admission fast path: a single warm solver
     answering a random query sequence gives the same admission limits
     as the cold bisection for every query — warm starts change probe
     points, never answers. *)
  let gen =
    QCheck.Gen.(
      let* m = marginal_gen in
      let* queries =
        list_size (int_range 1 20)
          (pair (float_range 0.5 500.) (oneofl [ 1e-2; 1e-3; 1e-4; 1e-6 ]))
      in
      return (m, queries))
  in
  QCheck.Test.make ~name:"warm solver equals cold max_calls" ~count:100
    (QCheck.make gen) (fun (m, queries) ->
      let s = Chernoff.Solver.of_marginal m in
      List.for_all
        (fun (capacity, target) ->
          Chernoff.Solver.max_calls s ~capacity ~target
          = Chernoff.max_calls m ~capacity ~target)
        queries)

let prop_admits_equals_max_calls =
  (* The one-probe admission test against both searches, for call
     counts from 0 to past the search's upper bound (capacity / mean
     + 1), always including both sides of the admission limit. *)
  let gen =
    QCheck.Gen.(
      let* m = marginal_gen in
      let* capacity =
        oneof
          [ return 0.; float_range 0. (Chernoff.mean m); float_range 0.5 500. ]
      in
      let* target = oneofl [ 1e-2; 1e-3; 1e-4; 1e-6 ] in
      let* fractions = list_size (int_range 1 20) (float_range 0. 1.5) in
      return (m, capacity, target, fractions))
  in
  QCheck.Test.make ~name:"admits equals max_calls" ~count:200
    (QCheck.make gen) (fun (m, capacity, target, fractions) ->
      let s = Chernoff.Solver.of_marginal m in
      let cold = Chernoff.max_calls m ~capacity ~target in
      let upper = int_of_float (capacity /. Chernoff.mean m) + 1 in
      let calls =
        [ 0; max 0 (cold - 1); cold; cold + 1; upper - 1; upper; upper + 1 ]
        @ List.map (fun f -> int_of_float (f *. float_of_int upper)) fractions
      in
      List.for_all
        (fun calls ->
          let admits = Chernoff.Solver.admits s ~capacity ~target ~calls in
          admits = (calls + 1 <= Chernoff.Solver.max_calls s ~capacity ~target)
          && admits = (calls + 1 <= cold))
        calls)

let prop_eb_between_mean_and_peak =
  QCheck.Test.make ~name:"effective bandwidth in [mean, peak]" ~count:100
    QCheck.(pair (float_range 0.05 0.95) (float_range 0.05 0.95))
    (fun (p, q) ->
      let m = two_state_source p q ~low:1. ~high:9. in
      let eb = Eb.effective_bandwidth m ~theta:1. in
      eb >= Modulated.mean_rate m -. 1e-6
      && eb <= Modulated.peak_rate m +. 1e-6)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_effbw"
    [
      ( "log_mgf",
        [
          Alcotest.test_case "zero" `Quick test_log_mgf_zero;
          Alcotest.test_case "closed form" `Quick test_log_mgf_closed_form;
          Alcotest.test_case "constant source" `Quick test_log_mgf_constant_source;
        ] );
      ( "effective_bandwidth",
        [
          Alcotest.test_case "limits" `Quick test_effective_bandwidth_limits;
          Alcotest.test_case "monotone" `Quick test_effective_bandwidth_monotone;
          Alcotest.test_case "buffer monotonicity" `Quick
            test_equivalent_bandwidth_monotone_in_buffer;
          Alcotest.test_case "loss monotonicity" `Quick
            test_equivalent_bandwidth_monotone_in_loss;
          Alcotest.test_case "decay rate inverse" `Quick test_decay_rate_inverse;
          Alcotest.test_case "decay rate extremes" `Quick test_decay_rate_extremes;
        ] );
      ( "multiscale",
        [
          Alcotest.test_case "formula 9" `Quick test_multiscale_formula9;
          Alcotest.test_case "exceeds worst mean" `Quick
            test_multiscale_exceeds_worst_mean;
          Alcotest.test_case "static descriptor waste" `Quick
            test_multiscale_vs_flattened_mean;
        ] );
      ( "chernoff",
        [
          Alcotest.test_case "validate" `Quick test_chernoff_validate;
          Alcotest.test_case "mean/max" `Quick test_chernoff_mean_max;
          Alcotest.test_case "log mgf" `Quick test_chernoff_log_mgf;
          Alcotest.test_case "rate function regions" `Quick
            test_rate_function_regions;
          Alcotest.test_case "rate function at max" `Quick test_rate_function_at_max;
          Alcotest.test_case "overflow estimate" `Quick test_overflow_estimate;
          Alcotest.test_case "vs exact binomial" `Quick
            test_overflow_vs_exact_binomial;
          Alcotest.test_case "capacity for target" `Quick test_capacity_for_target;
          Alcotest.test_case "SMG in n" `Quick test_capacity_decreases_with_n;
          Alcotest.test_case "max calls boundary" `Quick test_max_calls_boundary;
          Alcotest.test_case "max calls monotone" `Quick
            test_max_calls_monotone_in_capacity;
          Alcotest.test_case "max calls zero capacity" `Quick
            test_max_calls_zero_capacity;
          Alcotest.test_case "max calls vanishing mean" `Quick
            test_max_calls_vanishing_mean;
        ] );
      ( "solver",
        [
          Alcotest.test_case "matches cold" `Quick test_solver_matches_cold;
          Alcotest.test_case "warm max calls" `Quick test_solver_max_calls_warm;
          Alcotest.test_case "admits one level" `Quick test_solver_admits_one_level;
          Alcotest.test_case "admits mean zero" `Quick test_solver_admits_mean_zero;
          Alcotest.test_case "admits mixed with max calls" `Quick
            test_solver_admits_mixed;
          Alcotest.test_case "weighted load" `Quick test_solver_weighted_load;
          Alcotest.test_case "set_marginal reuse" `Quick
            test_solver_set_marginal_reuse;
        ] );
      ( "properties",
        q
          [
            prop_rate_function_nonneg;
            prop_overflow_decreasing_in_c;
            prop_eb_between_mean_and_peak;
            prop_solver_decisions_equal_cold;
            prop_admits_equals_max_calls;
          ] );
    ]
