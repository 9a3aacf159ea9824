type subchain = { chain : Chain.t; rates : float array }

type t = {
  subchains : subchain array;
  eps : float array array;
  stationaries : float array array; (* per-subchain stationary laws *)
}

let create subchains ~eps =
  let k = Array.length subchains in
  assert (k > 0);
  assert (Array.length eps = k);
  Array.iteri
    (fun i row ->
      assert (Array.length row = k);
      assert (Float.equal row.(i) 0.);
      let sum = Array.fold_left ( +. ) 0. row in
      Array.iter (fun x -> assert (x >= 0.)) row;
      assert (sum < 1.))
    eps;
  Array.iter
    (fun sc -> assert (Array.length sc.rates = Chain.n_states sc.chain))
    subchains;
  let stationaries = Array.map (fun sc -> Chain.stationary sc.chain) subchains in
  { subchains; eps; stationaries }

let n_subchains t = Array.length t.subchains
let subchain t k = t.subchains.(k)

let total_states t =
  Array.fold_left (fun acc sc -> acc + Chain.n_states sc.chain) 0 t.subchains

let leave_probability t k = Array.fold_left ( +. ) 0. t.eps.(k)

let slow_chain t =
  let k = n_subchains t in
  let rows =
    Array.init k (fun i ->
        Array.init k (fun j ->
            if i = j then 1. -. leave_probability t i else t.eps.(i).(j)))
  in
  Chain.create rows

let subchain_occupancy t = Chain.stationary (slow_chain t)

let subchain_mean_rates t =
  Array.mapi
    (fun k sc ->
      let pi = t.stationaries.(k) in
      let acc = ref 0. in
      Array.iteri (fun s p -> acc := !acc +. (p *. sc.rates.(s))) pi;
      !acc)
    t.subchains

let mean_rate t =
  let occ = subchain_occupancy t in
  let means = subchain_mean_rates t in
  let acc = ref 0. in
  Array.iteri (fun k p -> acc := !acc +. (p *. means.(k))) occ;
  !acc

(* lint: allow R001 — probe: flatten and formula-9 tests bound results by it *)
let peak_rate t =
  Array.fold_left
    (fun acc sc -> Float.max acc (Array.fold_left Float.max 0. sc.rates))
    0. t.subchains

let offsets t =
  let k = n_subchains t in
  let off = Array.make k 0 in
  for i = 1 to k - 1 do
    off.(i) <- off.(i - 1) + Chain.n_states t.subchains.(i - 1).chain
  done;
  off

let flatten t =
  let n = total_states t in
  let off = offsets t in
  let rows = Array.init n (fun _ -> Array.make n 0.) in
  Array.iteri
    (fun k sc ->
      let stay = 1. -. leave_probability t k in
      let nk = Chain.n_states sc.chain in
      for s = 0 to nk - 1 do
        let row = rows.(off.(k) + s) in
        (* Fast transition inside the subchain. *)
        for s' = 0 to nk - 1 do
          row.(off.(k) + s') <- stay *. Chain.prob sc.chain s s'
        done;
        (* Rare jump: enter target subchain at its stationary law. *)
        Array.iteri
          (fun j e ->
            if e > 0. then
              Array.iteri
                (fun s' p -> row.(off.(j) + s') <- row.(off.(j) + s') +. (e *. p))
                t.stationaries.(j))
          t.eps.(k)
      done)
    t.subchains;
  let chain = Chain.create rows in
  let rates = Array.make n 0. in
  Array.iteri
    (fun k sc ->
      Array.iteri (fun s r -> rates.(off.(k) + s) <- r) sc.rates)
    t.subchains;
  Modulated.create chain ~rates

let two_state_subchain ~low ~high ~p_up ~p_down =
  let chain =
    Chain.create [| [| 1. -. p_up; p_up |]; [| p_down; 1. -. p_down |] |]
  in
  { chain; rates = [| low; high |] }

let fig4_example () =
  (* Rates in data units per slot; a "unit" of 1.0 ~ the long-term mean.
     Quiet scenes hover near 0.4x mean, normal near 1x, action scenes
     near 3-5x with fast flicker between two levels inside each scene. *)
  let quiet = two_state_subchain ~low:0.2 ~high:0.6 ~p_up:0.1 ~p_down:0.2 in
  let normal = two_state_subchain ~low:0.7 ~high:1.5 ~p_up:0.2 ~p_down:0.2 in
  let action = two_state_subchain ~low:2.5 ~high:5.0 ~p_up:0.3 ~p_down:0.3 in
  let eps =
    [|
      [| 0.; 1.5e-3; 0.5e-3 |];
      [| 1.0e-3; 0.; 1.0e-3 |];
      [| 0.5e-3; 2.5e-3; 0. |];
    |]
  in
  create [| quiet; normal; action |] ~eps
