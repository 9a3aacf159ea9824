type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

(* lint: allow R001 — test-only; delete with "rng copy" *)
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t =
  (* A second avalanche on an independent draw decorrelates the child
     stream from the parent continuation. *)
  let s = bits64 t in
  { state = mix (Int64.logxor s 0xD1B54A32D192ED03L) }

let float t =
  (* 53 uniform bits scaled to [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for n < 2^24
     and irrelevant for simulation workloads, but we still reject the
     biased tail to keep the generator exact. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r n64 in
    if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub n64 1L) then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let exponential t rate =
  assert (rate > 0.);
  let rec positive () =
    let u = float t in
    if u > 0. then u else positive ()
  in
  -.log (positive ()) /. rate

let normal t ~mu ~sigma =
  let rec positive () =
    let u = float t in
    if u > 0. then u else positive ()
  in
  let u1 = positive () and u2 = float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

(* lint: allow R001 — test-only; delete with "rng poisson mean" and "rng
   poisson large" *)
let poisson t lambda =
  assert (lambda >= 0.);
  if Float.equal lambda 0. then 0
  else if lambda > 500. then
    (* Normal approximation with continuity correction. *)
    let x = normal t ~mu:lambda ~sigma:(sqrt lambda) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.lambda) in
    let rec loop k prod =
      let prod = prod *. float t in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let rec positive () =
      let u = float t in
      if u > 0. then u else positive ()
    in
    int_of_float (Float.floor (log (positive ()) /. log (1. -. p)))

let choose t weights =
  let total = Array.fold_left ( +. ) 0. weights in
  assert (total > 0.);
  let target = float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
