module Chernoff = Rcbr_effbw.Chernoff

type t = { levels : float array; fractions : float array }

let create ~levels ~fractions =
  if Array.length levels = 0 then invalid_arg "Descriptor.create: empty";
  if Array.length levels <> Array.length fractions then
    invalid_arg "Descriptor.create: length mismatch";
  let prev = ref neg_infinity in
  Array.iter
    (fun l ->
      if l < 0. || l <= !prev then
        invalid_arg "Descriptor.create: levels not ascending";
      prev := l)
    levels;
  let total = Array.fold_left ( +. ) 0. fractions in
  Array.iter
    (fun f -> if f < 0. then invalid_arg "Descriptor.create: negative fraction")
    fractions;
  if Float.abs (total -. 1.) > 1e-6 then
    invalid_arg "Descriptor.create: fractions do not sum to 1";
  { levels = Array.copy levels; fractions = Array.copy fractions }

let of_schedule sched =
  let marg = Rcbr_core.Schedule.marginal sched in
  let levels = Array.map snd marg in
  let fractions = Array.map fst marg in
  create ~levels ~fractions

let to_marginal t =
  Array.init (Array.length t.levels) (fun i -> (t.fractions.(i), t.levels.(i)))

let max_admissible t ~capacity ~target =
  Chernoff.max_calls (to_marginal t) ~capacity ~target
