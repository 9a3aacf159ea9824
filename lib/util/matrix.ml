type t = { data : float array array }

let of_rows rows =
  assert (Array.length rows > 0);
  let cols = Array.length rows.(0) in
  Array.iter (fun r -> assert (Array.length r = cols)) rows;
  { data = Array.map Array.copy rows }

let rows t = Array.length t.data
let cols t = Array.length t.data.(0)

let scale_rows t d =
  assert (Array.length d = rows t);
  { data = Array.mapi (fun i row -> Array.map (fun x -> d.(i) *. x) row) t.data }

let mat_vec t v =
  assert (Array.length v = cols t);
  Array.map
    (fun row ->
      let acc = ref 0. in
      Array.iteri (fun j x -> acc := !acc +. (x *. v.(j))) row;
      !acc)
    t.data

let solve a b =
  let n = rows a in
  assert (cols a = n && Array.length b = n);
  let m = Array.map Array.copy a.data in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting. *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
    done;
    if Float.abs m.(!pivot).(col) < 1e-300 then failwith "Matrix.solve: singular";
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- tb
    end;
    for r = col + 1 to n - 1 do
      let factor = m.(r).(col) /. m.(col).(col) in
      if not (Float.equal factor 0.) then begin
        for c = col to n - 1 do
          m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
        done;
        x.(r) <- x.(r) -. (factor *. x.(col))
      end
    done
  done;
  for r = n - 1 downto 0 do
    let acc = ref x.(r) in
    for c = r + 1 to n - 1 do
      acc := !acc -. (m.(r).(c) *. x.(c))
    done;
    x.(r) <- !acc /. m.(r).(r)
  done;
  x

let perron_root t =
  let tol = 1e-12 and max_iter = 10_000 in
  let n = rows t in
  assert (cols t = n);
  Array.iter (Array.iter (fun x -> assert (x >= 0.))) t.data;
  (* A tiny uniform perturbation makes the matrix primitive so power
     iteration converges even for periodic or reducible chains; the
     perturbation shifts the root by at most n * eps. *)
  let eps = 1e-13 in
  let v = ref (Array.make n (1. /. float_of_int n)) in
  let lambda = ref 0. in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < max_iter do
    incr iter;
    let w = mat_vec t !v in
    let sum_v = Array.fold_left ( +. ) 0. !v in
    let w = Array.map (fun x -> x +. (eps *. sum_v)) w in
    let norm = Array.fold_left ( +. ) 0. w in
    if norm <= 0. then begin
      lambda := 0.;
      continue_ := false
    end
    else begin
      let next = Array.map (fun x -> x /. norm) w in
      if Float.abs (norm -. !lambda) <= tol *. Float.max 1. norm then continue_ := false;
      lambda := norm;
      v := next
    end
  done;
  Float.max 0. (!lambda -. (eps *. float_of_int n))
