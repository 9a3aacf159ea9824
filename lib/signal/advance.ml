module Schedule = Rcbr_core.Schedule

(* The booked-rate function is piecewise constant; we store the change
   points in a sorted map from time to the rate delta at that instant. *)
type t = { capacity : float; mutable deltas : (float * float) list }
(* [deltas] sorted by time ascending; booked rate at time x is the sum
   of deltas at times <= x. *)

let create ~capacity =
  assert (capacity > 0.);
  { capacity; deltas = [] }

let add_delta t at delta =
  let rec insert = function
    | [] -> [ (at, delta) ]
    | (time, d) :: rest when Float.equal time at ->
        let d' = d +. delta in
        if Float.abs d' < 1e-9 then rest else (time, d') :: rest
    | (time, _) :: _ as all when time > at -> (at, delta) :: all
    | entry :: rest -> entry :: insert rest
  in
  t.deltas <- insert t.deltas

let reserved_at t x =
  List.fold_left
    (fun acc (time, d) -> if time <= x then acc +. d else acc)
    0. t.deltas

let peak_reserved t ~from_ ~until =
  assert (from_ < until);
  (* Evaluate at the window start and at every change point inside. *)
  let peak = ref (reserved_at t from_) in
  let level = ref 0. in
  List.iter
    (fun (time, d) ->
      level := !level +. d;
      if time > from_ && time < until && !level > !peak then peak := !level)
    t.deltas;
  !peak

let book t ~from_ ~until ~rate =
  assert (rate >= 0. && from_ < until);
  if Float.equal rate 0. then true
  else if peak_reserved t ~from_ ~until +. rate > t.capacity +. 1e-9 then false
  else begin
    add_delta t from_ rate;
    add_delta t until (-.rate);
    true
  end

let release t ~from_ ~until ~rate =
  assert (rate >= 0. && from_ < until);
  if rate > 0. then begin
    add_delta t from_ (-.rate);
    add_delta t until rate
  end

let book_schedule t ~start sched =
  let segs = Schedule.segments sched in
  let n = Array.length segs in
  let fps = Schedule.fps sched in
  let seg_window i =
    let stop =
      if i + 1 < n then segs.(i + 1).Schedule.start_slot
      else Schedule.n_slots sched
    in
    ( start +. (float_of_int segs.(i).Schedule.start_slot /. fps),
      start +. (float_of_int stop /. fps) )
  in
  let booked = ref [] in
  let ok = ref true in
  (try
     Array.iteri
       (fun i seg ->
         let from_, until = seg_window i in
         if seg.Schedule.rate > 0. then
           if book t ~from_ ~until ~rate:seg.Schedule.rate then
             booked := (from_, until, seg.Schedule.rate) :: !booked
           else begin
             ok := false;
             raise Exit
           end)
       segs
   with Exit -> ());
  if not !ok then
    List.iter
      (fun (from_, until, rate) -> release t ~from_ ~until ~rate)
      !booked;
  !ok

let booked_area t ~from_ ~until =
  assert (from_ < until);
  (* Integrate the piecewise-constant rate across the window. *)
  let points =
    List.filter_map
      (fun (time, _) -> if time > from_ && time < until then Some time else None)
      t.deltas
  in
  let points = from_ :: (points @ [ until ]) in
  let rec integrate acc = function
    | a :: (b :: _ as rest) ->
        integrate (acc +. (reserved_at t a *. (b -. a))) rest
    | [ _ ] | [] -> acc
  in
  integrate 0. points
