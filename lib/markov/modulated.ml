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

let simulate_states t rng ~steps =
  let init = Rng.choose rng (Chain.stationary t.chain) in
  Chain.simulate t.chain rng ~init ~steps

let simulate t rng ~steps =
  let states = simulate_states t rng ~steps in
  Array.map (fun s -> t.rates.(s)) states
