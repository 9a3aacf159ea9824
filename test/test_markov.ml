(* Unit and property tests for Rcbr_markov. *)

module Chain = Rcbr_markov.Chain
module Modulated = Rcbr_markov.Modulated
module Multiscale = Rcbr_markov.Multiscale
module Rng = Rcbr_util.Rng

let check_close eps = Alcotest.(check (float eps))

let two_state p q =
  Chain.create [| [| 1. -. p; p |]; [| q; 1. -. q |] |]

(* --- Chain --- *)

let test_create_rejects_non_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Chain.create: matrix not square") (fun () ->
      ignore (Chain.create [| [| 1. |]; [| 0.5; 0.5 |] |]))

let test_create_rejects_bad_rows () =
  Alcotest.check_raises "row sum"
    (Invalid_argument "Chain.create: row does not sum to 1") (fun () ->
      ignore (Chain.create [| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Chain.create: negative probability") (fun () ->
      ignore (Chain.create [| [| 1.5; -0.5 |]; [| 0.5; 0.5 |] |]))

let test_stationary_two_state () =
  (* pi = (q, p)/(p+q) for the standard two-state chain. *)
  let c = two_state 0.2 0.3 in
  let pi = Chain.stationary c in
  check_close 1e-9 "pi0" 0.6 pi.(0);
  check_close 1e-9 "pi1" 0.4 pi.(1)

let test_stationary_identity_like () =
  let c = Chain.create [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |] in
  let pi = Chain.stationary c in
  check_close 1e-9 "uniform" 0.5 pi.(0)

let test_stationary_three_state () =
  let c =
    Chain.create
      [|
        [| 0.0; 1.0; 0.0 |];
        [| 0.0; 0.0; 1.0 |];
        [| 1.0; 0.0; 0.0 |];
      |]
  in
  let pi = Chain.stationary c in
  Array.iter (fun p -> check_close 1e-9 "cycle uniform" (1. /. 3.) p) pi

let test_simulate_occupancy () =
  let c = two_state 0.2 0.3 in
  let rng = Rng.create 42 in
  let states = Chain.simulate c rng ~init:0 ~steps:200_000 in
  let in_zero =
    Array.fold_left (fun n s -> if s = 0 then n + 1 else n) 0 states
  in
  check_close 0.01 "occupancy matches stationary" 0.6
    (float_of_int in_zero /. float_of_int (Array.length states))

let test_simulate_starts_at_init () =
  let c = two_state 0.5 0.5 in
  let rng = Rng.create 1 in
  let states = Chain.simulate c rng ~init:1 ~steps:10 in
  Alcotest.(check int) "init included" 1 states.(0)

let test_step_respects_support () =
  let c = Chain.create [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check int) "deterministic step" 1 (Chain.step c rng 0)
  done

(* --- Modulated --- *)

let test_modulated_mean_peak () =
  let m = Modulated.create (two_state 0.2 0.3) ~rates:[| 1.; 11. |] in
  check_close 1e-9 "mean" 5. (Modulated.mean_rate m);
  check_close 1e-9 "peak" 11. (Modulated.peak_rate m)

let test_modulated_simulate_mean () =
  let m = Modulated.create (two_state 0.2 0.3) ~rates:[| 1.; 11. |] in
  let rng = Rng.create 9 in
  let data = Modulated.simulate m rng ~steps:200_000 in
  let mean = Array.fold_left ( +. ) 0. data /. 200_000. in
  check_close 0.1 "simulated mean" 5. mean

let test_modulated_rates_copied () =
  let rates = [| 1.; 2. |] in
  let m = Modulated.create (two_state 0.5 0.5) ~rates in
  rates.(0) <- 99.;
  check_close 1e-9 "immutable" 1. (Modulated.rates m).(0)

(* --- Multiscale --- *)

let example () = Multiscale.fig4_example ()

let test_multiscale_structure () =
  let ms = example () in
  Alcotest.(check int) "subchains" 3 (Multiscale.n_subchains ms);
  Alcotest.(check int) "total states" 6 (Multiscale.total_states ms);
  Alcotest.(check bool) "rare transitions" true
    (Multiscale.leave_probability ms 0 < 0.01)

let test_multiscale_occupancy_sums () =
  let occ = Multiscale.subchain_occupancy (example ()) in
  let total = Array.fold_left ( +. ) 0. occ in
  check_close 1e-9 "sums to 1" 1. total;
  Array.iter (fun p -> Alcotest.(check bool) "positive" true (p > 0.)) occ

let test_multiscale_mean_consistency () =
  let ms = example () in
  let occ = Multiscale.subchain_occupancy ms in
  let means = Multiscale.subchain_mean_rates ms in
  let mix = ref 0. in
  Array.iteri (fun k p -> mix := !mix +. (p *. means.(k))) occ;
  check_close 1e-12 "mean = occupancy-weighted subchain means" !mix
    (Multiscale.mean_rate ms)

let test_flatten_preserves_mean () =
  let ms = example () in
  let flat = Multiscale.flatten ms in
  check_close 1e-6 "flattened mean rate" (Multiscale.mean_rate ms)
    (Modulated.mean_rate flat)

let test_flatten_preserves_peak () =
  let ms = example () in
  check_close 1e-12 "flattened peak" (Multiscale.peak_rate ms)
    (Modulated.peak_rate (Multiscale.flatten ms))

let test_create_validates_eps () =
  let sc =
    { Multiscale.chain = two_state 0.5 0.5; rates = [| 0.; 1. |] }
  in
  let bad_eps = [| [| 0.1; 0.1 |]; [| 0.1; 0. |] |] in
  Alcotest.(check bool) "nonzero diagonal rejected" true
    (try
       ignore (Multiscale.create [| sc; sc |] ~eps:bad_eps);
       false
     with Assert_failure _ -> true)

(* --- Properties --- *)

let random_chain_gen =
  (* Random 3-state stochastic matrix with strictly positive entries. *)
  QCheck.Gen.(
    let row = array_size (return 3) (float_range 0.1 1.) in
    array_size (return 3) row)

let prop_stationary_fixed_point =
  QCheck.Test.make ~name:"stationary is a fixed point" ~count:100
    (QCheck.make random_chain_gen) (fun rows ->
      let rows =
        Array.map
          (fun r ->
            let s = Array.fold_left ( +. ) 0. r in
            Array.map (fun x -> x /. s) r)
          rows
      in
      let c = Chain.create rows in
      let pi = Chain.stationary c in
      let pi' = Array.make 3 0. in
      for i = 0 to 2 do
        for j = 0 to 2 do
          pi'.(j) <- pi'.(j) +. (pi.(i) *. Chain.prob c i j)
        done
      done;
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) pi pi')

let prop_mean_rate_between =
  QCheck.Test.make ~name:"mean rate between min and max" ~count:100
    (QCheck.make random_chain_gen) (fun rows ->
      let rows =
        Array.map
          (fun r ->
            let s = Array.fold_left ( +. ) 0. r in
            Array.map (fun x -> x /. s) r)
          rows
      in
      let rates = [| 1.; 5.; 20. |] in
      let m = Modulated.create (Chain.create rows) ~rates in
      let mu = Modulated.mean_rate m in
      mu >= 1. -. 1e-9 && mu <= 20. +. 1e-9)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_markov"
    [
      ( "chain",
        [
          Alcotest.test_case "rejects non-square" `Quick test_create_rejects_non_square;
          Alcotest.test_case "rejects bad rows" `Quick test_create_rejects_bad_rows;
          Alcotest.test_case "stationary two-state" `Quick test_stationary_two_state;
          Alcotest.test_case "stationary uniform" `Quick test_stationary_identity_like;
          Alcotest.test_case "stationary cycle" `Quick test_stationary_three_state;
          Alcotest.test_case "simulate occupancy" `Quick test_simulate_occupancy;
          Alcotest.test_case "simulate init" `Quick test_simulate_starts_at_init;
          Alcotest.test_case "step support" `Quick test_step_respects_support;
        ] );
      ( "modulated",
        [
          Alcotest.test_case "mean/peak" `Quick test_modulated_mean_peak;
          Alcotest.test_case "simulate mean" `Quick test_modulated_simulate_mean;
          Alcotest.test_case "rates copied" `Quick test_modulated_rates_copied;
        ] );
      ( "multiscale",
        [
          Alcotest.test_case "structure" `Quick test_multiscale_structure;
          Alcotest.test_case "occupancy sums" `Quick test_multiscale_occupancy_sums;
          Alcotest.test_case "mean consistency" `Quick test_multiscale_mean_consistency;
          Alcotest.test_case "flatten mean" `Quick test_flatten_preserves_mean;
          Alcotest.test_case "flatten peak" `Quick test_flatten_preserves_peak;
          Alcotest.test_case "eps validation" `Quick test_create_validates_eps;
        ] );
      ("properties", q [ prop_stationary_fixed_point; prop_mean_rate_between ]);
    ]
