type t = { mutable w : float array; mutable levels : int }

let create ~levels =
  assert (levels > 0);
  { w = Array.make levels 0.; levels }

let levels t = t.levels

let ensure t ~levels =
  assert (levels >= 0);
  if levels > t.levels then begin
    if levels > Array.length t.w then begin
      let cap = max levels (2 * Array.length t.w) in
      let w = Array.make cap 0. in
      Array.blit t.w 0 w 0 t.levels;
      t.w <- w
    end;
    (* Slots between the old and new level count may hold stale values
       from a previous [ensure]-shrink cycle; they do not, because the
       array only ever grows and new cells start at 0. *)
    t.levels <- levels
  end

let add t level x =
  assert (x >= 0.);
  ensure t ~levels:(level + 1);
  t.w.(level) <- t.w.(level) +. x

let weight t level = if level < t.levels then t.w.(level) else 0.

let total t =
  let acc = ref 0. in
  for i = 0 to t.levels - 1 do
    acc := !acc +. t.w.(i)
  done;
  !acc

(* lint: allow R001 — test-only; delete with "histogram merge/scale" and
   "histogram add_weighted" *)
let merge a b =
  assert (levels a = levels b);
  { w = Array.init a.levels (fun i -> a.w.(i) +. b.w.(i)); levels = a.levels }

(* lint: allow R001 — test-only; delete with "histogram add_weighted" *)
let add_weighted ~into ?(scale = 1.) src =
  assert (scale >= 0.);
  ensure into ~levels:src.levels;
  for i = 0 to src.levels - 1 do
    into.w.(i) <- into.w.(i) +. (scale *. src.w.(i))
  done

(* lint: allow R001 — test-only; delete with "histogram merge/scale" *)
let scale t k =
  assert (k >= 0.);
  { w = Array.init t.levels (fun i -> t.w.(i) *. k); levels = t.levels }

(* lint: allow R001 — test-only; delete with "histogram distribution" *)
let to_distribution t =
  let s = total t in
  assert (s > 0.);
  Array.init t.levels (fun i -> t.w.(i) /. s)

(* lint: allow R001 — test-only; delete with "histogram normalize" *)
let normalize t =
  let s = total t in
  assert (s > 0.);
  { w = Array.init t.levels (fun i -> t.w.(i) /. s); levels = t.levels }

let log_mass ?(floor = 1e-9) t level =
  assert (floor > 0. && floor <= 1.);
  let s = total t in
  let p = if s > 0. then weight t level /. s else 0. in
  Float.log (Float.max floor p)

(* lint: allow R001 — test-only; delete with "histogram mean value" *)
let mean_level_value t ~values =
  let s = total t in
  assert (s > 0.);
  let acc = ref 0. in
  for i = 0 to t.levels - 1 do
    acc := !acc +. (t.w.(i) /. s *. values.(i))
  done;
  !acc
