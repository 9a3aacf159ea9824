module Matrix = Rcbr_util.Matrix
module Rng = Rcbr_util.Rng

type t = { p : float array array; matrix : Matrix.t }

let create rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Chain.create: empty matrix";
  let p =
    Array.map
      (fun row ->
        if Array.length row <> n then
          invalid_arg "Chain.create: matrix not square";
        let sum = Array.fold_left ( +. ) 0. row in
        Array.iter
          (fun x ->
            if x < 0. then invalid_arg "Chain.create: negative probability")
          row;
        if Float.abs (sum -. 1.) > 1e-9 then
          invalid_arg "Chain.create: row does not sum to 1";
        Array.map (fun x -> x /. sum) row)
      rows
  in
  { p; matrix = Matrix.of_rows p }

let n_states t = Array.length t.p
let prob t i j = t.p.(i).(j)
let matrix t = t.matrix

let stationary t =
  let n = n_states t in
  (* Solve pi (P - I) = 0 with the last equation replaced by sum pi = 1,
     i.e. (P - I)^T pi = 0 row-wise. *)
  let a = Array.init n (fun _ -> Array.make n 0.) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.(j).(i) <- t.p.(i).(j) -. (if i = j then 1. else 0.)
    done
  done;
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.
  done;
  let b = Array.make n 0. in
  b.(n - 1) <- 1.;
  let pi = Matrix.solve (Matrix.of_rows a) b in
  (* Numerical noise can leave tiny negatives; clean and renormalize. *)
  let pi = Array.map (fun x -> Float.max 0. x) pi in
  let s = Array.fold_left ( +. ) 0. pi in
  Array.map (fun x -> x /. s) pi

let step t rng s = Rng.choose rng t.p.(s)

let simulate t rng ~init ~steps =
  assert (steps > 0 && init >= 0 && init < n_states t);
  let out = Array.make steps init in
  for i = 1 to steps - 1 do
    out.(i) <- step t rng out.(i - 1)
  done;
  out
