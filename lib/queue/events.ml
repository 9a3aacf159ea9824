type t = { mutable clock : float; queue : (t -> unit) Wheel.t }
type token = { q : (t -> unit) Wheel.t; h : (t -> unit) Wheel.handle }

let create () = { clock = 0.; queue = Wheel.create () }
let now t = t.clock

let schedule t ~at f =
  assert (at >= t.clock);
  ignore (Wheel.push t.queue ~time:at f)

let schedule_token t ~at f =
  assert (at >= t.clock);
  { q = t.queue; h = Wheel.push t.queue ~time:at f }

let schedule_after t ~delay f =
  assert (delay >= 0.);
  schedule t ~at:(t.clock +. delay) f

let cancel tok = Wheel.cancel tok.q tok.h
(* lint: allow R001 — probe: the event tests check cancellation *)
let cancelled tok = not (Wheel.live tok.q tok.h)

(* The earliest event is read through [Wheel.min_time] and
   [Wheel.pop_min]: the only allocation per event is the clock's boxed
   float. *)
let step t =
  Wheel.length t.queue > 0
  && begin
       t.clock <- Wheel.min_time t.queue;
       let f = Wheel.pop_min t.queue in
       f t;
       true
     end

let run ?(until = infinity) t =
  let q = t.queue in
  let continue_ = ref true in
  while !continue_ && Wheel.length q > 0 do
    let at = Wheel.min_time q in
    if at > until then continue_ := false
    else begin
      t.clock <- at;
      let f = Wheel.pop_min q in
      f t
    end
  done

let advance_to t ~at =
  assert (at >= t.clock);
  run ~until:at t;
  if at > t.clock then t.clock <- at

(* lint: allow R001 — probe: the event tests check the live count *)
let pending t = Wheel.length t.queue
