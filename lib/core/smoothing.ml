module Trace = Rcbr_traffic.Trace

(* Cumulative arrivals: a.(t) = bits arrived during slots 0..t-1, so
   a.(0) = 0 and a.(n) = total. *)
let cumulative trace =
  let n = Trace.length trace in
  let a = Array.make (n + 1) 0. in
  for t = 0 to n - 1 do
    a.(t + 1) <- a.(t) +. Trace.frame trace t
  done;
  a

let schedule ~buffer trace =
  assert (buffer >= 0.);
  let n = Trace.length trace in
  let a = cumulative trace in
  let lower t = if t = n then a.(n) else Float.max 0. (a.(t) -. buffer) in
  let upper t = a.(t) in
  (* Taut string through the band [lower, upper], anchored at (0, 0) and
     pinned to (n, A(n)).  Each outer iteration scans forward narrowing
     the feasible slope window until it closes; the binding envelope
     point becomes the next bend. *)
  let segments = ref [] in
  let emit i j slope =
    assert (j > i);
    segments := (i, slope) :: !segments
  in
  let anchor_t = ref 0 and anchor_s = ref 0. in
  while !anchor_t < n do
    let i = !anchor_t and s = !anchor_s in
    let slope_min = ref neg_infinity and slope_max = ref infinity in
    let j_min = ref i and j_max = ref i in
    let j = ref (i + 1) in
    let finished = ref false in
    while not !finished do
      let dt = float_of_int (!j - i) in
      let lo = (lower !j -. s) /. dt in
      let hi = (upper !j -. s) /. dt in
      if lo > !slope_max then begin
        (* The string must hug the upper envelope: bend at its binding
           point. *)
        emit i !j_max !slope_max;
        anchor_t := !j_max;
        anchor_s := s +. (!slope_max *. float_of_int (!j_max - i));
        finished := true
      end
      else if hi < !slope_min then begin
        emit i !j_min !slope_min;
        anchor_t := !j_min;
        anchor_s := s +. (!slope_min *. float_of_int (!j_min - i));
        finished := true
      end
      else begin
        if lo > !slope_min then begin
          slope_min := lo;
          j_min := !j
        end;
        if hi < !slope_max then begin
          slope_max := hi;
          j_max := !j
        end;
        if !j = n then begin
          (* The end is pinned (lower n = upper n), so the final exact
             slope is inside the window; ride it home. *)
          let slope = (a.(n) -. s) /. float_of_int (n - i) in
          emit i n slope;
          anchor_t := n;
          anchor_s := a.(n);
          finished := true
        end
        else incr j
      end
    done
  done;
  let fps = Trace.fps trace in
  let segs =
    List.rev_map
      (fun (start_slot, slope) ->
        { Schedule.start_slot; rate = Float.max 0. (slope *. fps) })
      !segments
  in
  Schedule.create ~fps ~n_slots:n segs
