(* Unit and property tests for Rcbr_util. *)

module Rng = Rcbr_util.Rng
module Stats = Rcbr_util.Stats
module Histogram = Rcbr_util.Histogram
module Numeric = Rcbr_util.Numeric
module Matrix = Rcbr_util.Matrix
module Pool = Rcbr_util.Pool
module Json = Rcbr_util.Json
module Tables = Rcbr_util.Tables

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Float.equal (Rng.float a) (Rng.float b) then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 4)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_float_mean () =
  let rng = Rng.create 3 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  check_close 0.01 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_rng_int_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_int_uniform () =
  let rng = Rng.create 13 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.int rng 5 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_close 0.02 "uniform cell" 0.2 (float_of_int c /. float_of_int n))
    counts

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* The child stream should not track the parent's continuation. *)
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Float.equal (Rng.float parent) (Rng.float child) then incr equal
  done;
  Alcotest.(check bool) "split decorrelated" true (!equal < 4)

let test_rng_copy () =
  let a = Rng.create 77 in
  let _ = Rng.float a in
  let b = Rng.copy a in
  check_float "copy tracks" (Rng.float a) (Rng.float b)

let test_rng_exponential_mean () =
  let rng = Rng.create 21 in
  let n = 100_000 and rate = 2.5 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng rate
  done;
  check_close 0.01 "exp mean" (1. /. rate) (!acc /. float_of_int n)

let test_rng_normal_moments () =
  let rng = Rng.create 22 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mu:3. ~sigma:2.) in
  check_close 0.05 "normal mean" 3. (Stats.mean xs);
  check_close 0.1 "normal stddev" 2. (Stats.stddev xs)

let test_rng_poisson_mean () =
  let rng = Rng.create 23 in
  let n = 50_000 and lambda = 7.3 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson rng lambda
  done;
  check_close 0.1 "poisson mean" lambda (float_of_int !acc /. float_of_int n)

let test_rng_poisson_large_lambda () =
  let rng = Rng.create 29 in
  let n = 20_000 and lambda = 1000. in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.poisson rng lambda
  done;
  check_close 2. "poisson mean (normal approx)" lambda
    (float_of_int !acc /. float_of_int n)

let test_rng_geometric_mean () =
  let rng = Rng.create 31 in
  let n = 100_000 and p = 0.2 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.geometric rng p
  done;
  (* Mean of failures-before-success is (1-p)/p = 4. *)
  check_close 0.1 "geometric mean" 4. (float_of_int !acc /. float_of_int n)

let test_rng_geometric_p1 () =
  let rng = Rng.create 32 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 gives 0" 0 (Rng.geometric rng 1.)
  done

let test_rng_choose_weights () =
  let rng = Rng.create 41 in
  let weights = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.choose rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never chosen" 0 counts.(1);
  check_close 0.02 "weight 1/4" 0.25 (float_of_int counts.(0) /. float_of_int n);
  check_close 0.02 "weight 3/4" 0.75 (float_of_int counts.(2) /. float_of_int n)

(* --- Stats --- *)

let test_stats_mean_var () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_close 1e-9 "variance" (32. /. 7.) (Stats.variance xs);
  check_float "singleton variance" 0. (Stats.variance [| 3. |])

let test_stats_quantile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "median" 3. (Stats.quantile xs 0.5);
  check_float "min" 1. (Stats.quantile xs 0.);
  check_float "max" 5. (Stats.quantile xs 1.);
  check_float "interpolated" 1.5 (Stats.quantile xs 0.125);
  (* quantile must not mutate *)
  Alcotest.(check (array (float 0.))) "unchanged" [| 5.; 1.; 3.; 2.; 4. |] xs

let test_stats_min_max () =
  let xs = [| 3.; -1.; 7.; 0. |] in
  check_float "min" (-1.) (Stats.minimum xs);
  check_float "max" 7. (Stats.maximum xs)

let test_stats_autocorrelation () =
  let xs = Array.init 100 (fun i -> if i mod 2 = 0 then 1. else -1.) in
  check_close 0.05 "lag-2 of alternating" 1.
    (Stats.autocorrelation xs 2 /. (98. /. 100.));
  Alcotest.(check bool) "lag-1 negative" true (Stats.autocorrelation xs 1 < 0.);
  check_float "constant series" 0.
    (Stats.autocorrelation (Array.make 10 5.) 1)

let test_stats_online_matches_batch () =
  let rng = Rng.create 55 in
  let xs = Array.init 1000 (fun _ -> Rng.float rng) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  check_close 1e-9 "mean" (Stats.mean xs) (Stats.Online.mean o);
  check_close 1e-9 "variance" (Stats.variance xs) (Stats.Online.variance o);
  Alcotest.(check int) "count" 1000 (Stats.Online.count o)

let test_stats_online_precision () =
  let o = Stats.Online.create () in
  Alcotest.(check bool) "empty is infinite" true
    (Float.equal (Stats.Online.relative_precision o) infinity);
  Stats.Online.add o 1.;
  Alcotest.(check bool) "one sample is infinite" true
    (Float.equal (Stats.Online.confidence_halfwidth o) infinity);
  for _ = 1 to 100 do
    Stats.Online.add o 1.
  done;
  check_float "constant samples: zero halfwidth" 0.
    (Stats.Online.confidence_halfwidth o)

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Histogram.create ~levels:4 in
  Histogram.add h 0 1.;
  Histogram.add h 2 3.;
  check_float "weight" 3. (Histogram.weight h 2);
  check_float "total" 4. (Histogram.total h);
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Histogram.support h)

let test_histogram_distribution () =
  let h = Histogram.create ~levels:3 in
  Histogram.add h 0 1.;
  Histogram.add h 1 1.;
  Histogram.add h 1 2.;
  let p = Histogram.to_distribution h in
  check_float "p0" 0.25 p.(0);
  check_float "p1" 0.75 p.(1);
  check_float "p2" 0. p.(2)

let test_histogram_merge_scale () =
  let a = Histogram.of_distribution [| 1.; 2. |] in
  let b = Histogram.of_distribution [| 3.; 0. |] in
  let m = Histogram.merge a b in
  check_float "merged 0" 4. (Histogram.weight m 0);
  check_float "merged 1" 2. (Histogram.weight m 1);
  let s = Histogram.scale a 2. in
  check_float "scaled" 4. (Histogram.weight s 1)

let test_histogram_mean_value () =
  let h = Histogram.of_distribution [| 0.5; 0.5 |] in
  check_float "mean value" 15. (Histogram.mean_level_value h ~values:[| 10.; 20. |])

let test_histogram_grow_in_place () =
  let h = Histogram.create ~levels:1 in
  Histogram.ensure h ~levels:3;
  Alcotest.(check int) "ensured" 3 (Histogram.levels h);
  Histogram.ensure h ~levels:2;
  Alcotest.(check int) "never shrinks" 3 (Histogram.levels h);
  (* add/set beyond the current size grow on demand. *)
  Histogram.add h 5 2.;
  Alcotest.(check bool) "grown by add" true (Histogram.levels h >= 6);
  check_float "added" 2. (Histogram.weight h 5);
  Histogram.set h 7 4.;
  check_float "set grew" 4. (Histogram.weight h 7);
  Histogram.set h 5 1.;
  check_float "set overwrites" 1. (Histogram.weight h 5);
  check_float "out of range is 0" 0. (Histogram.weight h 100)

let test_histogram_sub_clear () =
  let h = Histogram.of_distribution [| 3.; 1. |] in
  Histogram.sub h 0 2.;
  check_float "subtracted" 1. (Histogram.weight h 0);
  Histogram.clear h;
  check_float "cleared total" 0. (Histogram.total h);
  Alcotest.(check int) "storage kept" 2 (Histogram.levels h)

let test_histogram_add_weighted () =
  let into = Histogram.of_distribution [| 1.; 2. |] in
  let src = Histogram.of_distribution [| 10.; 0.; 5. |] in
  Histogram.add_weighted ~into ~scale:0.5 src;
  check_float "scaled into 0" 6. (Histogram.weight into 0);
  check_float "untouched level" 2. (Histogram.weight into 1);
  check_float "into grew" 2.5 (Histogram.weight into 2);
  (* Default scale is 1 and must match merge. *)
  let a = Histogram.of_distribution [| 1.; 2. |] in
  let b = Histogram.of_distribution [| 3.; 4. |] in
  let m = Histogram.merge a b in
  Histogram.add_weighted ~into:a b;
  check_float "matches merge 0" (Histogram.weight m 0) (Histogram.weight a 0);
  check_float "matches merge 1" (Histogram.weight m 1) (Histogram.weight a 1)

let test_histogram_iter_support () =
  let h = Histogram.of_distribution [| 0.; 2.; 0.; 1. |] in
  let seen = ref [] in
  Histogram.iter_support h (fun level w -> seen := (level, w) :: !seen);
  Alcotest.(check (list (pair int (float 1e-12))))
    "positive levels ascending"
    [ (1, 2.); (3, 1.) ]
    (List.rev !seen);
  (* iter_support agrees with support on the visited set. *)
  Alcotest.(check (list int)) "same as support" (Histogram.support h)
    (List.rev_map fst !seen)

let test_histogram_normalize () =
  let h = Histogram.create ~levels:3 in
  Histogram.add h 0 1.;
  Histogram.add h 2 3.;
  let n = Histogram.normalize h in
  check_float "total mass 1" 1. (Histogram.total n);
  check_float "p0" 0.25 (Histogram.weight n 0);
  check_float "p2" 0.75 (Histogram.weight n 2);
  (* The original is untouched. *)
  check_float "source total" 4. (Histogram.total h)

let test_histogram_log_mass () =
  let h = Histogram.create ~levels:3 in
  Histogram.add h 0 1.;
  Histogram.add h 1 3.;
  check_float "log p0" (Float.log 0.25) (Histogram.log_mass h 0);
  check_float "log p1" (Float.log 0.75) (Histogram.log_mass h 1);
  (* Empty bins and out-of-range levels hit the floor, not -inf. *)
  check_float "empty bin floored" (Float.log 1e-9) (Histogram.log_mass h 2);
  check_float "out of range floored" (Float.log 1e-9) (Histogram.log_mass h 7);
  check_float "custom floor" (Float.log 1e-3)
    (Histogram.log_mass ~floor:1e-3 h 2);
  (* An all-zero histogram is the floor everywhere. *)
  let z = Histogram.create ~levels:2 in
  check_float "zero histogram floored" (Float.log 1e-9) (Histogram.log_mass z 0)

(* --- Numeric --- *)

let test_bisect_sqrt () =
  let f x = (x *. x) -. 2. in
  check_close 1e-7 "sqrt 2" (sqrt 2.) (Numeric.bisect ~f 0. 2.)

let test_bisect_endpoint_root () =
  let f x = x in
  check_float "root at lo" 0. (Numeric.bisect ~f 0. 1.)

let test_find_min_such_that () =
  let pred x = x >= 3.25 in
  check_close 1e-6 "threshold" 3.25 (Numeric.find_min_such_that ~pred 0. 10.);
  check_float "lo already true" 0. (Numeric.find_min_such_that ~pred:(fun _ -> true) 0. 5.);
  check_float "never true returns hi" 5.
    (Numeric.find_min_such_that ~pred:(fun _ -> false) 0. 5.)

let test_golden_max () =
  let f x = -.((x -. 1.7) ** 2.) in
  check_close 1e-6 "argmax" 1.7 (Numeric.golden_max ~f 0. 10.)

let test_log_sum_exp () =
  check_close 1e-12 "two equal" (log 2.) (Numeric.log_sum_exp [| 0.; 0. |]);
  check_close 1e-9 "huge values stay finite" (1000. +. log 2.)
    (Numeric.log_sum_exp [| 1000.; 1000. |]);
  check_float "neg infinity alone" neg_infinity
    (Numeric.log_sum_exp [| neg_infinity |]);
  check_close 1e-12 "neg infinity ignored" 5.
    (Numeric.log_sum_exp [| 5.; neg_infinity |])

let test_approx_equal () =
  Alcotest.(check bool) "close" true (Numeric.approx_equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "far" false (Numeric.approx_equal 1. 2.)

(* --- Matrix --- *)

let test_matrix_mul_identity () =
  let a = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let i = Matrix.identity 2 in
  let p = Matrix.mul a i in
  check_float "unchanged" 3. (Matrix.get p 1 0)

let test_matrix_solve () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Matrix.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Matrix.solve a [| 5.; 10. |] in
  check_close 1e-9 "x" 1. x.(0);
  check_close 1e-9 "y" 3. x.(1)

let test_matrix_solve_singular () =
  let a = Matrix.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular") (fun () ->
      ignore (Matrix.solve a [| 1.; 1. |]))

let test_matrix_transpose_vec () =
  let a = Matrix.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  check_float "entry" 6. (Matrix.get t 2 1);
  let v = Matrix.mat_vec a [| 1.; 1.; 1. |] in
  check_float "mat_vec" 15. v.(1);
  let w = Matrix.vec_mat [| 1.; 1. |] a in
  check_float "vec_mat" 5. w.(0)

let test_perron_stochastic () =
  (* Any stochastic matrix has Perron root 1. *)
  let m = Matrix.of_rows [| [| 0.9; 0.1 |]; [| 0.4; 0.6 |] |] in
  check_close 1e-9 "stochastic root" 1. (Matrix.perron_root m)

let test_perron_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let m = Matrix.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  check_close 1e-8 "root 3" 3. (Matrix.perron_root m)

let test_perron_diagonal () =
  let m = Matrix.of_rows [| [| 5.; 0. |]; [| 0.; 2. |] |] in
  check_close 1e-6 "diagonal max" 5. (Matrix.perron_root m)

let test_scale_rows () =
  let m = Matrix.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let s = Matrix.scale_rows m [| 2.; 10. |] in
  check_float "row 0" 4. (Matrix.get s 0 1);
  check_float "row 1" 30. (Matrix.get s 1 0)

(* --- Pool --- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun x -> x * x) xs)
    (Pool.map ~pool (fun x -> x * x) xs);
  Alcotest.(check (array int))
    "init matches" (Array.init 37 (fun i -> 3 * i))
    (Pool.init ~pool 37 (fun i -> 3 * i))

let test_pool_empty_and_singleton () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check (list int)) "empty" [] (Pool.map ~pool Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~pool Fun.id [ 7 ])

let test_pool_exception () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.check_raises "first task exception re-raised"
    (Failure "task 5") (fun () ->
      ignore
        (Pool.init ~pool 32 (fun i ->
             if i = 5 then failwith "task 5" else i)));
  (* The pool must still be usable after a failed batch. *)
  Alcotest.(check (list int))
    "pool survives" [ 0; 2; 4 ]
    (Pool.map ~pool (fun x -> 2 * x) [ 0; 1; 2 ])

let test_pool_nested () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  (* Tasks submitting to their own pool must not deadlock: the joining
     task helps drain the queue. *)
  let rows =
    Pool.map ~pool
      (fun i -> Pool.map ~pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested maps"
    [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
    rows

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 () in
  Alcotest.(check int) "jobs" 2 (Pool.jobs pool);
  Pool.shutdown pool;
  Pool.shutdown pool

let prop_pool_map_equals_sequential =
  QCheck.Test.make ~name:"Pool.map ~jobs:4 = List.map" ~count:50
    QCheck.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let f x = (x *. 1.7) -. (x /. 3.) in
      List.equal Float.equal
        (Pool.with_pool ~jobs:4 (fun pool -> Pool.map ~pool f xs))
        (List.map f xs))

(* Pre-split generators make randomized parallel tasks bit-identical to
   the sequential run — the pattern every lib/sim sweep relies on. *)
let prop_pool_presplit_rng_deterministic =
  QCheck.Test.make ~name:"pre-split rng tasks are jobs-invariant" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let task rng = Array.init 50 (fun _ -> Rng.float rng) in
      let run jobs =
        let master = Rng.create seed in
        let rngs = Array.init 8 (fun _ -> Rng.split master) in
        Pool.with_pool ~jobs (fun pool -> Pool.map_array ~pool task rngs)
      in
      Array.for_all2 (Array.for_all2 Float.equal) (run 1) (run 4))

(* --- Json --- *)

let test_json_to_string () =
  Alcotest.(check string)
    "object"
    {|{"a": 1, "b": [true, null, "x\n"], "c": 1.5}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x\n" ]);
            ("c", Json.Float 1.5);
          ]))

let test_json_float_repr () =
  Alcotest.(check string) "round-trip repr" "0.1" (Json.to_string (Json.Float 0.1));
  Alcotest.(check string)
    "17 digits when needed" "1.0000000000000002"
    (Json.to_string (Json.Float 1.0000000000000002));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "infinity is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_save () =
  let path = Filename.temp_file "rcbr_json" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Json.save (Json.Obj [ ("k", Json.Int 3) ]) path;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "saved line" {|{"k": 3}|} line

(* --- Interrupt --- *)

(* SIGUSR1 rather than SIGINT so a failing test can still be Ctrl-C'd.
   OCaml delivers signals at safe points (allocations), so poll with an
   allocating no-op until the handler has run. *)
let test_interrupt_flag () =
  Fun.protect ~finally:(fun () ->
      Rcbr_util.Interrupt.reset ~signals:[ Sys.sigusr1 ] ())
  @@ fun () ->
  Rcbr_util.Interrupt.install_flag ~signals:[ Sys.sigusr1 ] ();
  Alcotest.(check bool) "clean before" false (Rcbr_util.Interrupt.requested ());
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  let rec wait n =
    if Rcbr_util.Interrupt.requested () then true
    else if n = 0 then false
    else begin
      ignore (Sys.opaque_identity (String.make 16 'x'));
      wait (n - 1)
    end
  in
  Alcotest.(check bool) "flag set after signal" true (wait 100_000);
  Rcbr_util.Interrupt.reset ~signals:[ Sys.sigusr1 ] ();
  Alcotest.(check bool) "reset clears the flag" false
    (Rcbr_util.Interrupt.requested ())

(* --- Properties --- *)

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.)) (float_range 0. 1.))
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let v = Stats.quantile arr q in
      v >= Stats.minimum arr -. 1e-9 && v <= Stats.maximum arr +. 1e-9)

let prop_log_sum_exp_ge_max =
  QCheck.Test.make ~name:"log_sum_exp >= max element" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-50.) 50.))
    (fun xs ->
      let arr = Array.of_list xs in
      Numeric.log_sum_exp arr >= Array.fold_left Float.max neg_infinity arr -. 1e-9)

let prop_solve_inverts =
  QCheck.Test.make ~name:"solve then multiply recovers b" ~count:100
    QCheck.(array_of_size (Gen.return 3) (float_range 1. 5.))
    (fun b ->
      (* Diagonally dominant matrix: always solvable. *)
      let a =
        Matrix.of_rows
          [| [| 10.; 1.; 2. |]; [| 1.; 12.; 3. |]; [| 2.; 1.; 9. |] |]
      in
      let x = Matrix.solve a b in
      let b' = Matrix.mat_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) b b')

(* Tables' sorted views against a reference model, under forced bucket
   collisions (8 keys in a table created with 2 buckets) and stacked
   [add] / [replace] / [remove] histories.  The model is the op list
   itself: the live binding of a key is the most recent one. *)
let prop_tables_sorted_views =
  QCheck.Test.make ~name:"Tables sorted views match the binding model"
    ~count:300
    QCheck.(list (triple (0 -- 2) (0 -- 7) small_int))
    (fun ops ->
      let tbl = Hashtbl.create 2 in
      let rec remove_first k = function
        | [] -> []
        | (k', _) :: rest when k' = k -> rest
        | b :: rest -> b :: remove_first k rest
      in
      let model =
        List.fold_left
          (fun m (op, k, v) ->
            match op with
            | 0 ->
                Hashtbl.add tbl k v;
                (k, v) :: m
            | 1 ->
                Hashtbl.replace tbl k v;
                (k, v) :: remove_first k m
            | _ ->
                Hashtbl.remove tbl k;
                remove_first k m)
          [] ops
      in
      let live = List.sort_uniq compare (List.map fst model) in
      let bindings = List.map (fun k -> (k, List.assoc k model)) live in
      Tables.sorted_keys tbl = live
      && Tables.sorted_bindings tbl = bindings
      && Tables.fold_sorted (fun k v acc -> (k, v) :: acc) tbl []
         = List.rev bindings
      &&
      let seen = ref [] in
      Tables.iter_sorted (fun k v -> seen := (k, v) :: !seen) tbl;
      List.rev !seen = bindings)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "poisson large" `Quick test_rng_poisson_large_lambda;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
          Alcotest.test_case "choose weights" `Quick test_rng_choose_weights;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "autocorrelation" `Quick test_stats_autocorrelation;
          Alcotest.test_case "online matches batch" `Quick
            test_stats_online_matches_batch;
          Alcotest.test_case "online precision" `Quick test_stats_online_precision;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "distribution" `Quick test_histogram_distribution;
          Alcotest.test_case "merge/scale" `Quick test_histogram_merge_scale;
          Alcotest.test_case "mean value" `Quick test_histogram_mean_value;
          Alcotest.test_case "grow in place" `Quick test_histogram_grow_in_place;
          Alcotest.test_case "sub/clear" `Quick test_histogram_sub_clear;
          Alcotest.test_case "add_weighted" `Quick test_histogram_add_weighted;
          Alcotest.test_case "iter_support" `Quick test_histogram_iter_support;
          Alcotest.test_case "normalize" `Quick test_histogram_normalize;
          Alcotest.test_case "log_mass" `Quick test_histogram_log_mass;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "bisect sqrt" `Quick test_bisect_sqrt;
          Alcotest.test_case "bisect endpoint" `Quick test_bisect_endpoint_root;
          Alcotest.test_case "find_min_such_that" `Quick test_find_min_such_that;
          Alcotest.test_case "golden max" `Quick test_golden_max;
          Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
          Alcotest.test_case "approx_equal" `Quick test_approx_equal;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "mul identity" `Quick test_matrix_mul_identity;
          Alcotest.test_case "solve" `Quick test_matrix_solve;
          Alcotest.test_case "solve singular" `Quick test_matrix_solve_singular;
          Alcotest.test_case "transpose/vec" `Quick test_matrix_transpose_vec;
          Alcotest.test_case "perron stochastic" `Quick test_perron_stochastic;
          Alcotest.test_case "perron known" `Quick test_perron_known;
          Alcotest.test_case "perron diagonal" `Quick test_perron_diagonal;
          Alcotest.test_case "scale rows" `Quick test_scale_rows;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "empty/singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "nested" `Quick test_pool_nested;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
        ] );
      ( "interrupt",
        [ Alcotest.test_case "flag set and reset" `Quick test_interrupt_flag ] );
      ( "json",
        [
          Alcotest.test_case "to_string" `Quick test_json_to_string;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "save" `Quick test_json_save;
        ] );
      ( "properties",
        q
          [
            prop_quantile_bounds;
            prop_log_sum_exp_ge_max;
            prop_solve_inverts;
            prop_pool_map_equals_sequential;
            prop_pool_presplit_rng_deterministic;
            prop_tables_sorted_views;
          ] );
    ]
