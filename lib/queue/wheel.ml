(* Binary min-heap on (time, seq), stored as a struct of arrays.

   The heap itself is three parallel columns in heap order: [times], a
   [float array] whose elements are unboxed, [seqs] and [ids].  An
   entry id names a per-entry row outside the heap: its current [slot]
   in the heap (-1 while the id is free), its [gen]eration and its
   [value].  Freed ids recycle through a stack, so a warm heap
   allocates nothing on push or pop.

   A handle packs the id and the generation the id had when it was
   pushed into one int.  Popping or cancelling an entry bumps its id's
   generation, so a handle whose id has since been reused no longer
   matches and [cancel]/[live] ignore it.

   The sifts are loops over local floats: a recursive sift that takes
   the time as an argument would box it at every level.  [cancel] takes
   an entry out in O(log n): the last entry fills the hole and sifts up
   or down, and no cancelled entry stays behind.  Ties fire in push
   order via the global [seq], so the pop order is a function of the
   pushed (time, seq) pairs alone. *)

type 'a handle = int

(* 31 bits each, so a handle is a non-negative int; a generation wraps
   after 2^31 reuses of one id. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

type 'a t = {
  (* heap order: entry at slot [i] *)
  mutable times : float array;
  mutable seqs : int array;
  mutable ids : int array;
  (* per entry id *)
  mutable slot : int array;  (* heap slot; -1 while the id is free *)
  mutable gen : int array;
  mutable values : 'a array;  (* a freed id keeps its last value until reuse *)
  mutable free : int array;  (* free-id stack *)
  mutable free_len : int;
  mutable n_ids : int;  (* ids ever issued *)
  mutable size : int;
  mutable next_seq : int;
}

(* The value column needs a value to fill with, so it stays empty until
   the first push, which sizes it to the hinted columns. *)
let create ?(capacity_hint = 0) () =
  let cap = max 0 capacity_hint in
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    ids = Array.make cap 0;
    slot = Array.make cap (-1);
    gen = Array.make cap 0;
    values = [||];
    free = Array.make cap 0;
    free_len = 0;
    n_ids = 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

(* Move the entry at slot [src] into the hole at slot [hole] (the two
   may coincide), sifting it up past the parents that fire after it or
   down past the children that fire before it.  [t.size] must already
   exclude a vacated [src]. *)
let settle t ~hole ~src =
  let times = t.times and seqs = t.seqs and ids = t.ids and slot = t.slot in
  let tm = times.(src) and sq = seqs.(src) and id = ids.(src) in
  let i = ref hole in
  let up = ref true in
  (* Up: (tm, sq) fires before the parent. *)
  while !up && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if tm < pt || (tm <= pt && sq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      let pid = ids.(p) in
      ids.(!i) <- pid;
      slot.(pid) <- !i;
      i := p
    end
    else up := false
  done;
  (* Down, when it did not move up: the earlier child fires first. *)
  if !i = hole then begin
    let n = t.size in
    let down = ref true in
    while !down && (2 * !i) + 1 < n do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n then
          let lt = times.(l) and rt = times.(l + 1) in
          if rt < lt || (rt <= lt && seqs.(l + 1) < seqs.(l)) then l + 1 else l
        else l
      in
      let ct = times.(c) in
      if ct < tm || (ct <= tm && seqs.(c) < sq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        let cid = ids.(c) in
        ids.(!i) <- cid;
        slot.(cid) <- !i;
        i := c
      end
      else down := false
    done
  end;
  times.(!i) <- tm;
  seqs.(!i) <- sq;
  ids.(!i) <- id;
  slot.(id) <- !i

let grow t value =
  let cap = Array.length t.times in
  let ncap = max 16 (2 * cap) in
  let gi a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let times = Array.make ncap 0. in
  Array.blit t.times 0 times 0 cap;
  t.times <- times;
  t.seqs <- gi t.seqs 0;
  t.ids <- gi t.ids 0;
  t.slot <- gi t.slot (-1);
  t.gen <- gi t.gen 0;
  t.free <- gi t.free 0;
  let values = Array.make ncap value in
  Array.blit t.values 0 values 0 cap;
  t.values <- values

let push t ~time value =
  if not (Float.is_finite time && time >= 0.) then
    invalid_arg "Wheel.push: time must be finite and non-negative";
  let id =
    if t.free_len > 0 then begin
      t.free_len <- t.free_len - 1;
      t.free.(t.free_len)
    end
    else begin
      if t.n_ids = Array.length t.times then grow t value
      else if t.n_ids = Array.length t.values then
        t.values <- Array.make (Array.length t.times) value;
      let id = t.n_ids in
      t.n_ids <- id + 1;
      id
    end
  in
  t.values.(id) <- value;
  let i = t.size in
  t.size <- i + 1;
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.ids.(i) <- id;
  t.next_seq <- t.next_seq + 1;
  settle t ~hole:i ~src:i;
  (t.gen.(id) lsl id_bits) lor id

(* Take the entry at slot [i] out of the heap and free its id. *)
let remove t i =
  let id = t.ids.(i) in
  t.slot.(id) <- -1;
  t.gen.(id) <- (t.gen.(id) + 1) land id_mask;
  t.free.(t.free_len) <- id;
  t.free_len <- t.free_len + 1;
  t.size <- t.size - 1;
  if i < t.size then settle t ~hole:i ~src:t.size;
  id

let min_time t =
  if t.size = 0 then invalid_arg "Wheel.min_time: empty queue";
  t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Wheel.pop_min: empty queue";
  t.values.(remove t 0)

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

(* The handle's id still carries the generation it was pushed with. *)
let slot_of t h =
  let id = h land id_mask in
  if id < t.n_ids && t.gen.(id) = h lsr id_bits then t.slot.(id) else -1

let cancel t h =
  let i = slot_of t h in
  if i >= 0 then ignore (remove t i)

(* lint: allow R001 — probe: the cancel property checks handle liveness *)
let live t h = slot_of t h >= 0
