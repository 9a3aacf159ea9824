(* Unit and property tests for Rcbr_traffic. *)

module Trace = Rcbr_traffic.Trace
module Gop = Rcbr_traffic.Gop
module Synthetic = Rcbr_traffic.Synthetic
module Token_bucket = Rcbr_traffic.Token_bucket

let check_close eps = Alcotest.(check (float eps))

let small_trace () = Trace.create ~fps:2. [| 10.; 20.; 30.; 40. |]

(* --- Trace --- *)

let test_trace_basic () =
  let t = small_trace () in
  Alcotest.(check int) "length" 4 (Trace.length t);
  check_close 1e-9 "duration" 2. (Trace.duration t);
  check_close 1e-9 "total" 100. (Trace.total_bits t);
  check_close 1e-9 "mean rate" 50. (Trace.mean_rate t);
  check_close 1e-9 "peak rate" 80. (Trace.peak_rate t);
  check_close 1e-9 "slot" 0.5 (Trace.slot_duration t)

let test_trace_validation () =
  Alcotest.(check bool) "negative frame rejected" true
    (try
       ignore (Trace.create ~fps:1. [| -1. |]);
       false
     with Assert_failure _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Trace.create ~fps:1. [||]);
       false
     with Assert_failure _ -> true)

let test_window_max () =
  let t = small_trace () in
  check_close 1e-9 "w=1" 40. (Trace.window_max_bits t 1);
  check_close 1e-9 "w=2" 70. (Trace.window_max_bits t 2);
  check_close 1e-9 "w=4" 100. (Trace.window_max_bits t 4)

let test_rate_in_window () =
  let t = small_trace () in
  (* frames 1..2 = 50 bits over 1 s *)
  check_close 1e-9 "middle window" 50. (Trace.rate_in_window t ~lo:1 ~hi:2)

let test_shift () =
  let t = small_trace () in
  let s = Trace.shift t 1 in
  check_close 1e-9 "shifted first" 20. (Trace.frame s 0);
  check_close 1e-9 "wrapped" 10. (Trace.frame s 3);
  let z = Trace.shift t 0 in
  check_close 1e-9 "zero shift" 10. (Trace.frame z 0);
  let n = Trace.shift t (-1) in
  check_close 1e-9 "negative shift" 40. (Trace.frame n 0)

let test_shift_preserves_total () =
  let t = small_trace () in
  check_close 1e-9 "total invariant" (Trace.total_bits t)
    (Trace.total_bits (Trace.shift t 3))

let test_sub () =
  let t = small_trace () in
  let s = Trace.sub t ~pos:1 ~len:2 in
  Alcotest.(check int) "length" 2 (Trace.length s);
  check_close 1e-9 "first" 20. (Trace.frame s 0)

let test_sustained_peak () =
  let t = Trace.create ~fps:1. [| 1.; 5.; 5.; 5.; 1.; 5. |] in
  Alcotest.(check int) "run of 3" 3 (Trace.sustained_peak t ~threshold:5.);
  Alcotest.(check int) "everything" 6 (Trace.sustained_peak t ~threshold:1.);
  Alcotest.(check int) "nothing" 0 (Trace.sustained_peak t ~threshold:10.)

let test_save_load_roundtrip () =
  let t = small_trace () in
  let path = Filename.temp_file "rcbr_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      let t' = Trace.load path in
      Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
      check_close 1e-12 "fps" (Trace.fps t) (Trace.fps t');
      for i = 0 to Trace.length t - 1 do
        check_close 1e-12 "frame" (Trace.frame t i) (Trace.frame t' i)
      done)

(* --- Gop --- *)

(* The MPEG-1 IBBPBBPBBPBB pattern the synthetic Star Wars trace uses. *)
let star_wars_gop = Synthetic.star_wars_params.Synthetic.gop

let test_gop_pattern () =
  let p = star_wars_gop in
  let is k i = Gop.kind_at p i = k in
  Alcotest.(check bool) "frame 0 is I" true (is Gop.I 0);
  Alcotest.(check bool) "frame 3 is P" true (is Gop.P 3);
  Alcotest.(check bool) "frame 1 is B" true (is Gop.B 1);
  Alcotest.(check bool) "one I per 12 frames" true
    (List.for_all (fun i -> not (is Gop.I i)) (List.init 11 succ));
  Alcotest.(check bool) "wraps" true (is Gop.I 12)

let test_gop_weights () =
  let p = star_wars_gop in
  check_close 1e-9 "I weight" 2.1 (Gop.weight_at p 0);
  check_close 1e-9 "P weight" 1.15 (Gop.weight_at p 3);
  check_close 1e-9 "B weight" 0.6 (Gop.weight_at p 1);
  (* (2.1 + 3*1.15 + 8*0.6)/12 *)
  check_close 1e-9 "mean weight" (10.35 /. 12.) (Gop.mean_weight p)

let test_gop_make_validates () =
  Alcotest.(check bool) "empty kinds rejected" true
    (try
       ignore (Gop.make ~kinds:[||] ~weight_i:1. ~weight_p:1. ~weight_b:1.);
       false
     with Assert_failure _ -> true)

(* --- Synthetic --- *)

let test_synthetic_mean_exact () =
  let t = Synthetic.star_wars ~frames:30_000 ~seed:1 () in
  check_close 1. "mean rate is calibrated exactly" 374_000. (Trace.mean_rate t)

let test_synthetic_deterministic () =
  let a = Synthetic.star_wars ~frames:5_000 ~seed:5 () in
  let b = Synthetic.star_wars ~frames:5_000 ~seed:5 () in
  for i = 0 to 4_999 do
    check_close 1e-12 "same frames" (Trace.frame a i) (Trace.frame b i)
  done

let test_synthetic_seed_changes () =
  let a = Synthetic.star_wars ~frames:1_000 ~seed:1 () in
  let b = Synthetic.star_wars ~frames:1_000 ~seed:2 () in
  let same = ref 0 in
  for i = 0 to 999 do
    if Float.equal (Trace.frame a i) (Trace.frame b i) then incr same
  done;
  Alcotest.(check bool) "traces differ" true (!same < 10)

let test_synthetic_positive_frames () =
  let t = Synthetic.star_wars ~frames:10_000 ~seed:3 () in
  for i = 0 to Trace.length t - 1 do
    if not (Trace.frame t i > 0.) then Alcotest.fail "nonpositive frame"
  done

let test_synthetic_occupancy () =
  let occ = Synthetic.class_occupancy Synthetic.star_wars_params in
  check_close 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. occ)

let test_synthetic_multiscale_projection () =
  let ms = Synthetic.to_multiscale Synthetic.star_wars_params in
  (* The projection should have roughly the trace's mean frame size. *)
  let mean_frame = 374_000. /. 24. in
  check_close (mean_frame *. 0.05) "projected mean" mean_frame
    (Rcbr_markov.Multiscale.mean_rate ms)

let test_synthetic_burstiness () =
  (* The generator must show multi-time-scale burstiness: the peak rate
     over 10-second windows should exceed twice the mean. *)
  let t = Synthetic.star_wars ~frames:50_000 ~seed:7 () in
  let mean = Trace.mean_rate t in
  let w = 240 in
  let best = ref 0. in
  let i = ref 0 in
  while !i + w <= Trace.length t do
    let r = Trace.rate_in_window t ~lo:!i ~hi:(!i + w - 1) in
    if r > !best then best := r;
    i := !i + w
  done;
  Alcotest.(check bool) "10-s windows exceed 2x mean" true (!best > 2. *. mean)

let test_synthetic_gop_structure () =
  (* I frames should be systematically bigger than the B frames around
     them. *)
  let t = Synthetic.star_wars ~frames:12_000 ~seed:11 () in
  let i_total = ref 0. and b_total = ref 0. and count = ref 0 in
  let g = 12 in
  let n = Trace.length t / g in
  for k = 0 to n - 1 do
    i_total := !i_total +. Trace.frame t (k * g);
    b_total := !b_total +. Trace.frame t ((k * g) + 1);
    incr count
  done;
  Alcotest.(check bool) "I bigger than B on average" true
    (!i_total /. float_of_int !count > 2. *. (!b_total /. float_of_int !count))

(* --- Token bucket --- *)

let test_bucket_basic () =
  let b = Token_bucket.create ~rate:10. ~depth:100. in
  Alcotest.(check bool) "starts full" true (Float.equal (Token_bucket.tokens b) 100.);
  Alcotest.(check bool) "consume ok" true (Token_bucket.try_consume b 60.);
  Alcotest.(check bool) "overdraw rejected" false (Token_bucket.try_consume b 60.);
  check_close 1e-9 "leftover" 40. (Token_bucket.tokens b);
  Token_bucket.refill b ~dt:2.;
  check_close 1e-9 "refilled" 60. (Token_bucket.tokens b);
  Token_bucket.refill b ~dt:100.;
  check_close 1e-9 "capped at depth" 100. (Token_bucket.tokens b)

let test_bucket_policing () =
  (* Constant-rate traffic at exactly the token rate conforms fully. *)
  let trace = Trace.create ~fps:1. (Array.make 50 10.) in
  let b = Token_bucket.create ~rate:10. ~depth:10. in
  check_close 1e-9 "conforming" 1. (Token_bucket.conforming_fraction b ~trace);
  (* Double-rate traffic conforms at most ~half the bits. *)
  let b2 = Token_bucket.create ~rate:10. ~depth:10. in
  let hot = Trace.create ~fps:1. (Array.make 50 20.) in
  Alcotest.(check bool) "nonconforming under overload" true
    (Token_bucket.conforming_fraction b2 ~trace:hot < 0.6)

let test_min_depth () =
  let trace = Trace.create ~fps:1. [| 0.; 30.; 0.; 0. |] in
  (* Drained at 10 b/s: backlog peaks at 30 - 10 = 20. *)
  check_close 1e-9 "depth" 20. (Token_bucket.min_depth_for_trace trace ~rate:10.);
  check_close 1e-9 "peak-rate drain needs nothing" 0.
    (Token_bucket.min_depth_for_trace trace ~rate:30.)

(* --- Properties --- *)

let trace_gen =
  QCheck.Gen.(
    let* n = int_range 2 60 in
    let* frames = array_size (return n) (float_range 0. 1000.) in
    return (Trace.create ~fps:8. frames))

let arb_trace = QCheck.make trace_gen

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift by n is identity" ~count:100 arb_trace (fun t ->
      let s = Trace.shift t (Trace.length t) in
      let frames t = Array.init (Trace.length t) (Trace.frame t) in
      Array.for_all2 Float.equal (frames t) (frames s))

let prop_window_max_monotone =
  QCheck.Test.make ~name:"window max is monotone in window" ~count:100 arb_trace
    (fun t ->
      let n = Trace.length t in
      let ok = ref true in
      for w = 2 to n do
        if Trace.window_max_bits t w < Trace.window_max_bits t (w - 1) -. 1e-9
        then ok := false
      done;
      !ok)

let prop_min_depth_monotone =
  QCheck.Test.make ~name:"min bucket depth decreases with rate" ~count:100
    arb_trace (fun t ->
      let d1 = Token_bucket.min_depth_for_trace t ~rate:100. in
      let d2 = Token_bucket.min_depth_for_trace t ~rate:500. in
      d2 <= d1 +. 1e-9)

let prop_mean_le_peak =
  QCheck.Test.make ~name:"mean rate <= peak rate" ~count:100 arb_trace (fun t ->
      Trace.mean_rate t <= Trace.peak_rate t +. 1e-9)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_traffic"
    [
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "window max" `Quick test_window_max;
          Alcotest.test_case "rate in window" `Quick test_rate_in_window;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "shift preserves total" `Quick test_shift_preserves_total;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "sustained peak" `Quick test_sustained_peak;
          Alcotest.test_case "save/load" `Quick test_save_load_roundtrip;
        ] );
      ( "gop",
        [
          Alcotest.test_case "pattern" `Quick test_gop_pattern;
          Alcotest.test_case "weights" `Quick test_gop_weights;
          Alcotest.test_case "validation" `Quick test_gop_make_validates;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "mean exact" `Quick test_synthetic_mean_exact;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "seed changes" `Quick test_synthetic_seed_changes;
          Alcotest.test_case "positive frames" `Quick test_synthetic_positive_frames;
          Alcotest.test_case "class occupancy" `Quick test_synthetic_occupancy;
          Alcotest.test_case "multiscale projection" `Quick
            test_synthetic_multiscale_projection;
          Alcotest.test_case "burstiness" `Quick test_synthetic_burstiness;
          Alcotest.test_case "gop structure" `Quick test_synthetic_gop_structure;
        ] );
      ( "token_bucket",
        [
          Alcotest.test_case "basic" `Quick test_bucket_basic;
          Alcotest.test_case "policing" `Quick test_bucket_policing;
          Alcotest.test_case "min depth" `Quick test_min_depth;
        ] );
      ( "properties",
        q
          [
            prop_shift_roundtrip;
            prop_window_max_monotone;
            prop_min_depth_monotone;
            prop_mean_le_peak;
          ] );
    ]
