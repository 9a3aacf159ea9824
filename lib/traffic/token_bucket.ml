type t = { rate : float; depth : float; mutable tokens : float }

let create ~rate ~depth =
  assert (rate >= 0. && depth >= 0.);
  { rate; depth; tokens = depth }

let rate t = t.rate
let tokens t = t.tokens

let refill t ~dt =
  assert (dt >= 0.);
  t.tokens <- Float.min t.depth (t.tokens +. (t.rate *. dt))

let try_consume t bits =
  assert (bits >= 0.);
  if bits <= t.tokens then begin
    t.tokens <- t.tokens -. bits;
    true
  end
  else false

let conforming_fraction t ~trace =
  let dt = Trace.slot_duration trace in
  let conforming = ref 0. in
  for i = 0 to Trace.length trace - 1 do
    refill t ~dt;
    let bits = Trace.frame trace i in
    if try_consume t bits then conforming := !conforming +. bits
  done;
  let total = Trace.total_bits trace in
  if Float.equal total 0. then 1. else !conforming /. total

let min_depth_for_trace trace ~rate =
  assert (rate >= 0.);
  (* Virtual queue with infinite buffer drained at [rate]; the max
     backlog is the depth needed for zero policing loss. *)
  let per_slot = rate /. Trace.fps trace in
  let backlog = ref 0. and peak = ref 0. in
  for i = 0 to Trace.length trace - 1 do
    backlog := Float.max 0. (!backlog +. Trace.frame trace i -. per_slot);
    if !backlog > !peak then peak := !backlog
  done;
  !peak
