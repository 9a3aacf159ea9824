(* Binary min-heap on (time, seq).

   Every entry records its slot in the heap array, so [cancel] takes it
   out in O(log n): the last entry fills the hole and sifts up or down,
   and no cancelled entry stays behind.  Ties fire in push order via the
   global [seq], so the pop order is a function of the pushed
   (time, seq) pairs alone. *)

type 'a entry = {
  time : float;
  seq : int;
  mutable pos : int;  (* slot in [heap]; -1 once popped or cancelled *)
  value : 'a;
}

type 'a handle = 'a entry

type 'a t = {
  mutable heap : 'a entry array;  (* pending entries occupy [0, size) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
(* lint: allow R001 — probe: the wheel tests check the live count *)
let length t = t.size

let before a b =
  a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let place t i e =
  t.heap.(i) <- e;
  e.pos <- i

(* Settle [e] into the hole at slot [i], moving the parents that fire
   after it down one level each. *)
let rec sift_up t i e =
  if i = 0 then place t 0 e
  else
    let parent = t.heap.((i - 1) / 2) in
    if before e parent then begin
      place t i parent;
      sift_up t ((i - 1) / 2) e
    end
    else place t i e

(* Settle [e] into the hole at slot [i], moving the earlier child up
   one level each step. *)
let rec sift_down t i e =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i e
  else
    let c =
      if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l
    in
    let child = t.heap.(c) in
    if before child e then begin
      place t i child;
      sift_down t c e
    end
    else place t i e

let push t ~time value =
  if not (Float.is_finite time && time >= 0.) then
    invalid_arg "Wheel.push: time must be finite and non-negative";
  let e = { time; seq = t.next_seq; pos = -1; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) e;
  e

(* Take the entry at slot [i] out of the heap. *)
let remove t i =
  let e = t.heap.(i) in
  e.pos <- -1;
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.heap.(t.size) in
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end;
  e

let peek t =
  if t.size = 0 then None
  else
    let e = t.heap.(0) in
    Some (e.time, e.value)

let pop t =
  if t.size = 0 then None
  else
    let e = remove t 0 in
    Some (e.time, e.value)

let cancel t e = if e.pos >= 0 then ignore (remove t e.pos)
(* lint: allow R001 — probe: the cancel property checks handle liveness *)
let live e = e.pos >= 0
