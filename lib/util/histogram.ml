type t = { mutable w : float array; mutable levels : int }

let create ~levels =
  assert (levels > 0);
  { w = Array.make levels 0.; levels }

(* lint: allow R001 — probe: the histogram tests check ensure and add by it *)
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

(* An unseen level costs log 1e-9 ~ -20.7 nats: steep but finite, so a
   beam can still follow traffic off the prior's support. *)
let log_floor = 1e-9

let log_mass t level =
  let s = total t in
  let p = if s > 0. then weight t level /. s else 0. in
  Float.log (Float.max log_floor p)
