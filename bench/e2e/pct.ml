(* Order statistics for timing samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] in (0, 100] among [n]
   samples.  [p * n / 100] keeps whole products exact, where
   [p / 100 * n] would make 0.9 * 100 exceed 90. *)
let rank ~n p = int_of_float (Float.ceil (p *. float_of_int n /. 100.))

(* Nearest-rank percentile of an ascending, non-empty array. *)
let of_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.of_sorted: no samples";
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let percentile xs p = of_sorted (sorted xs) p

(* Middle value, averaging the two middle ones of an even count (as
   Python's statistics.median does). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A percentile is reported only when at least ten samples lie beyond
   it; below that one slow sample decides the value. *)
let supported ~n p = n - rank ~n p >= 10

(* The highest percentile of [ladder] that [n] samples support. *)
let highest_supported ~n ladder =
  match List.filter (supported ~n) ladder with
  | [] -> None
  | p :: ps -> Some (List.fold_left Float.max p ps)

(* First and third quartile by Python's statistics.quantiles(xs, n=4)
   (the default "exclusive" method), so spreads computed here match the
   ones a Python reader computes from the same values.  Needs two or
   more samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Pct.quartiles: fewer than two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(* Interquartile distance as a share of the median: the run-to-run
   spread the benchmark's bounds are judged against.  0 for a single
   sample. *)
let spread xs =
  if Array.length xs < 2 then 0.
  else
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs (median xs)
