module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Wheel = Rcbr_queue.Wheel

type source =
  | Paced of { schedule : Rcbr_core.Schedule.t; offset : float }
  | Frame_burst of { trace : Rcbr_traffic.Trace.t; line_rate : float }

type stats = {
  cells : int;
  lost : int;
  max_queue : int;
  mean_queue : float;
  p99_queue : int;
  max_delay : float;
}

(* A generator produces the next cell arrival time of one source, or
   None when the source is done. *)
type generator = { next : unit -> float option }

let paced_generator schedule ~offset ~duration =
  let segs = Schedule.segments schedule in
  let n_segs = Array.length segs in
  let fps = Schedule.fps schedule in
  let seg_start i = float_of_int segs.(i).Schedule.start_slot /. fps in
  let seg_stop i =
    if i + 1 < n_segs then seg_start (i + 1)
    else float_of_int (Schedule.n_slots schedule) /. fps
  in
  let idx = ref 0 in
  let clock = ref offset in
  let rec next () =
    if !idx >= n_segs then None
    else begin
      let rate = segs.(!idx).Schedule.rate in
      let stop = seg_stop !idx +. offset in
      if rate <= 0. || !clock < seg_start !idx +. offset then begin
        (* Idle segment (or clock behind after a segment change): jump
           to the segment boundary. *)
        if rate <= 0. then begin
          incr idx;
          clock := Float.max !clock stop;
          next ()
        end
        else begin
          clock := seg_start !idx +. offset;
          next ()
        end
      end
      else if !clock >= stop then begin
        incr idx;
        next ()
      end
      else if !clock > duration then None
      else begin
        let t = !clock in
        clock := !clock +. (1. /. Cell.cell_rate ~rate);
        Some t
      end
    end
  in
  { next }

let burst_generator trace ~line_rate ~duration =
  assert (line_rate > 0.);
  let fps = Trace.fps trace in
  let spacing = Cell.wire_bits /. line_rate in
  let frame = ref 0 in
  let cell_in_frame = ref 0 in
  let cells_this_frame = ref (Cell.cells_of_bits (Trace.frame trace 0)) in
  let rec next () =
    if !frame >= Trace.length trace then None
    else if !cell_in_frame >= !cells_this_frame then begin
      incr frame;
      cell_in_frame := 0;
      if !frame < Trace.length trace then
        cells_this_frame := Cell.cells_of_bits (Trace.frame trace !frame);
      next ()
    end
    else begin
      let t =
        (float_of_int !frame /. fps)
        +. (float_of_int !cell_in_frame *. spacing)
      in
      incr cell_in_frame;
      if t > duration then None else Some t
    end
  in
  { next }

let arrivals ~sources ~duration =
  let queue = Wheel.create () in
  List.iteri
    (fun i src ->
      let g =
        match src with
        | Paced { schedule; offset } ->
            paced_generator schedule ~offset ~duration
        | Frame_burst { trace; line_rate } ->
            burst_generator trace ~line_rate ~duration
      in
      match g.next () with
      | Some t -> ignore (Wheel.push queue ~time:t (i, g))
      | None -> ())
    sources;
  let rec seq () =
    match Wheel.pop queue with
    | None -> Seq.Nil
    | Some (t, (i, g)) ->
        (match g.next () with
        | Some t' -> ignore (Wheel.push queue ~time:t' (i, g))
        | None -> ());
        Seq.Cons ((t, i), seq)
  in
  seq

let simulate ~port_rate ?buffer_cells ~sources ~duration () =
  assert (port_rate > 0. && duration > 0.);
  let service = Cell.service_time ~port_rate in
  let cap = match buffer_cells with None -> max_int | Some c -> c in
  assert (cap > 0);
  let queue = Wheel.create () in
  let generators =
    List.map
      (fun src ->
        match src with
        | Paced { schedule; offset } -> paced_generator schedule ~offset ~duration
        | Frame_burst { trace; line_rate } ->
            burst_generator trace ~line_rate ~duration)
      sources
  in
  List.iter
    (fun g ->
      match g.next () with
      | Some t -> ignore (Wheel.push queue ~time:t g)
      | None -> ())
    generators;
  (* Lindley recursion on the unfinished work: at an arrival at time t,
     the backlog that remains from the past is w = max(0, w_prev - (t -
     t_prev)); the queue the cell joins holds ceil(w / service) cells. *)
  let cells = ref 0 and lost = ref 0 in
  let work = ref 0. and last = ref 0. in
  let max_queue = ref 0 and queue_sum = ref 0. in
  let max_delay = ref 0. in
  let histogram = Hashtbl.create 256 in
  let continue_ = ref true in
  while !continue_ do
    match Wheel.pop queue with
    | None -> continue_ := false
    | Some (t, g) ->
        (match g.next () with
        | Some t' -> ignore (Wheel.push queue ~time:t' g)
        | None -> ());
        incr cells;
        work := Float.max 0. (!work -. (t -. !last));
        last := t;
        let queue = int_of_float (Float.ceil (!work /. service -. 1e-9)) in
        if queue >= cap then incr lost
        else begin
          if queue > !max_queue then max_queue := queue;
          queue_sum := !queue_sum +. float_of_int queue;
          Hashtbl.replace histogram queue
            (1 + Option.value ~default:0 (Hashtbl.find_opt histogram queue));
          if !work > !max_delay then max_delay := !work;
          work := !work +. service
        end
  done;
  let accepted = !cells - !lost in
  let p99 =
    if accepted = 0 then 0
    else begin
      let keys = Rcbr_util.Tables.sorted_keys histogram in
      let threshold = 0.99 *. float_of_int accepted in
      let rec scan acc = function
        | [] -> 0
        | k :: rest ->
            let acc = acc + Hashtbl.find histogram k in
            if float_of_int acc >= threshold then k else scan acc rest
      in
      scan 0 keys
    end
  in
  {
    cells = !cells;
    lost = !lost;
    max_queue = !max_queue;
    mean_queue = (if accepted = 0 then 0. else !queue_sum /. float_of_int accepted);
    p99_queue = p99;
    max_delay = !max_delay;
  }
