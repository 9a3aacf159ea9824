let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* lint: allow R001 — test-only; delete with "stats quantile" and "properties
   quantile within min/max" *)
let quantile xs q =
  assert (Array.length xs > 0 && q >= 0. && q <= 1.);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

(* lint: allow R001 — test-only; delete with "stats min/max" *)
let minimum xs = Array.fold_left min xs.(0) xs
(* lint: allow R001 — test-only; delete with "stats min/max" *)
let maximum xs = Array.fold_left max xs.(0) xs

(* lint: allow R001 — test-only; delete with "stats autocorrelation" *)
let autocorrelation xs lag =
  let n = Array.length xs in
  assert (lag >= 0 && lag < n);
  let m = mean xs in
  let var = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
  if Float.equal var 0. then 0.
  else begin
    let cov = ref 0. in
    for i = 0 to n - 1 - lag do
      cov := !cov +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
    done;
    !cov /. var
  end

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let confidence_halfwidth t =
    if t.n < 2 then infinity
    else 1.96 *. stddev t /. sqrt (float_of_int t.n)

  let relative_precision t =
    if t.n < 2 || Float.equal t.mean 0. then infinity
    else confidence_halfwidth t /. Float.abs t.mean
end
