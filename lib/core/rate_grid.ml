type t = { rates : float array }

let uniform ~lo ~hi ~levels =
  assert (lo >= 0. && hi > lo && levels >= 2);
  let step = (hi -. lo) /. float_of_int (levels - 1) in
  { rates = Array.init levels (fun i -> lo +. (float_of_int i *. step)) }

(* lint: allow R001 — fixture: the trellis tests build hand-made grids *)
let of_rates rates =
  assert (Array.length rates > 0);
  let prev = ref neg_infinity in
  Array.iter
    (fun r ->
      assert (r >= 0. && r > !prev);
      prev := r)
    rates;
  { rates = Array.copy rates }

let covering t ~peak =
  let top = t.rates.(Array.length t.rates - 1) in
  if top >= peak then t
  else { rates = Array.append t.rates [| peak |] }

let levels t = Array.length t.rates
let rate t i = t.rates.(i)
let top t = t.rates.(Array.length t.rates - 1)

let index_up t x =
  let n = Array.length t.rates in
  (* First level >= x; binary search. *)
  if x <= t.rates.(0) then 0
  else if x > t.rates.(n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.rates.(mid) >= x then hi := mid else lo := mid
    done;
    !hi
  end

let quantize_up t x = t.rates.(index_up t x)
