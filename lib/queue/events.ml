type t = { mutable clock : float; queue : (t -> unit) Wheel.t }
type token = { q : (t -> unit) Wheel.t; h : (t -> unit) Wheel.handle }

let create () = { clock = 0.; queue = Wheel.create () }
let now t = t.clock

let schedule_token t ~at f =
  assert (at >= t.clock);
  { q = t.queue; h = Wheel.push t.queue ~time:at f }

let schedule t ~at f = ignore (schedule_token t ~at f)

let schedule_after t ~delay f =
  assert (delay >= 0.);
  schedule t ~at:(t.clock +. delay) f

let cancel tok = Wheel.cancel tok.q tok.h
(* lint: allow R001 — probe: the event tests check cancellation *)
let cancelled tok = not (Wheel.live tok.h)

let step t =
  match Wheel.pop t.queue with
  | None -> false
  | Some (at, f) ->
      t.clock <- at;
      f t;
      true

let run ?(until = infinity) t =
  let continue_ = ref true in
  while !continue_ do
    match Wheel.peek t.queue with
    | None -> continue_ := false
    | Some (at, _) ->
        if at > until then continue_ := false
        else ignore (step t)
  done

let advance_to t ~at =
  assert (at >= t.clock);
  run ~until:at t;
  if at > t.clock then t.clock <- at

(* lint: allow R001 — probe: the event tests check the live count *)
let pending t = Wheel.length t.queue
