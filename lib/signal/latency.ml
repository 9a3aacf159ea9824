module Schedule = Rcbr_core.Schedule
module Tables = Rcbr_util.Tables

let remap f sched =
  let n = Schedule.n_slots sched in
  let segs = Array.to_list (Schedule.segments sched) in
  let moved =
    List.filteri (fun i _ -> i > 0) segs
    |> List.filter_map (fun s ->
           let slot = f s.Schedule.start_slot in
           if slot >= n then None
           else Some { s with Schedule.start_slot = max 0 slot })
  in
  (* Collisions: a later-issued change overrides an earlier one landing
     on the same slot, and a change pushed to slot 0 overrides the
     initial rate. *)
  let first = List.hd segs in
  let table = Hashtbl.create 16 in
  Hashtbl.replace table 0 first.Schedule.rate;
  List.iter
    (fun s -> Hashtbl.replace table s.Schedule.start_slot s.Schedule.rate)
    moved;
  let slots = Tables.sorted_keys table in
  let segs' =
    List.map
      (fun slot -> { Schedule.start_slot = slot; rate = Hashtbl.find table slot })
      slots
  in
  Schedule.create ~fps:(Schedule.fps sched) ~n_slots:n segs'

let delay sched ~seconds =
  assert (seconds >= 0.);
  let slots = int_of_float (Float.ceil (seconds *. Schedule.fps sched)) in
  remap (fun s -> s + slots) sched

let anticipate sched ~seconds =
  assert (seconds >= 0.);
  let slots = int_of_float (Float.ceil (seconds *. Schedule.fps sched)) in
  remap (fun s -> s - slots) sched

let align_to_refresh sched ~period_s =
  assert (period_s > 0.);
  let fps = Schedule.fps sched in
  let period_slots = Float.max 1. (period_s *. fps) in
  remap
    (fun s ->
      int_of_float (Float.ceil (float_of_int s /. period_slots) *. period_slots))
    sched
