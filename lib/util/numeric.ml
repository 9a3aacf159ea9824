(* Both searches stop after this many halvings or golden steps. *)
let max_iter = 200

let find_min_such_that ?(tol = 1e-9) ~pred lo hi =
  if pred lo then lo
  else if not (pred hi) then hi
  else begin
    let lo = ref lo and hi = ref hi in
    let iter = ref 0 in
    let scale = Float.max 1. (Float.max (Float.abs !lo) (Float.abs !hi)) in
    while !hi -. !lo > tol *. scale && !iter < max_iter do
      incr iter;
      let mid = 0.5 *. (!lo +. !hi) in
      if pred mid then hi := mid else lo := mid
    done;
    !hi
  end

let golden_max ~f lo hi =
  let tol = 1e-9 in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let lo = ref lo and hi = ref hi in
  let x1 = ref (!hi -. (phi *. (!hi -. !lo))) in
  let x2 = ref (!lo +. (phi *. (!hi -. !lo))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  let iter = ref 0 in
  let scale = Float.max 1. (Float.max (Float.abs !lo) (Float.abs !hi)) in
  while !hi -. !lo > tol *. scale && !iter < max_iter do
    incr iter;
    if !f1 > !f2 then begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (phi *. (!hi -. !lo));
      f1 := f !x1
    end
    else begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (phi *. (!hi -. !lo));
      f2 := f !x2
    end
  done;
  0.5 *. (!lo +. !hi)

let log_sum_exp xs =
  assert (Array.length xs > 0);
  let m = Array.fold_left Float.max neg_infinity xs in
  if Float.equal m neg_infinity then neg_infinity
  else
    let s = Array.fold_left (fun a x -> a +. exp (x -. m)) 0. xs in
    m +. log s
