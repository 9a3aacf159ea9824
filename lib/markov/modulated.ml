module Rng = Rcbr_util.Rng

type t = { chain : Chain.t; rates : float array }

let create chain ~rates =
  assert (Array.length rates = Chain.n_states chain);
  Array.iter (fun r -> assert (r >= 0.)) rates;
  { chain; rates = Array.copy rates }

let chain t = t.chain
let rates t = Array.copy t.rates

(* lint: allow R001 — probe: effective-bandwidth tests check against it *)
let mean_rate t =
  let pi = Chain.stationary t.chain in
  let acc = ref 0. in
  Array.iteri (fun i p -> acc := !acc +. (p *. t.rates.(i))) pi;
  !acc

(* lint: allow R001 — probe: effective-bandwidth tests check against it *)
let peak_rate t = Array.fold_left Float.max 0. t.rates

let stationary_init t rng = Rng.choose rng (Chain.stationary t.chain)

let simulate_states t rng ?init ~steps () =
  let init = match init with Some s -> s | None -> stationary_init t rng in
  Chain.simulate t.chain rng ~init ~steps

let simulate t rng ?init ~steps () =
  let states = simulate_states t rng ?init ~steps () in
  Array.map (fun s -> t.rates.(s)) states

(* lint: allow R001 — test-only; delete with "modulated on/off" *)
let on_off ~peak ~p_on_to_off ~p_off_to_on =
  assert (peak >= 0.);
  assert (p_on_to_off >= 0. && p_on_to_off <= 1.);
  assert (p_off_to_on >= 0. && p_off_to_on <= 1.);
  let chain =
    Chain.create
      [|
        [| 1. -. p_off_to_on; p_off_to_on |];
        [| p_on_to_off; 1. -. p_on_to_off |];
      |]
  in
  create chain ~rates:[| 0.; peak |]
