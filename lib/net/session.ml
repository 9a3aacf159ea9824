module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng

type faults = {
  rm_drop : float;
  retx_timeout : float;
  max_retransmits : int;
  crashes : (int * float * float) list;
  fault_seed : int;
  check_invariants : bool;
}

let no_faults =
  {
    rm_drop = 0.;
    retx_timeout = 0.25;
    max_retransmits = 4;
    crashes = [];
    fault_seed = 0;
    check_invariants = false;
  }

let validate fc =
  assert (fc.rm_drop >= 0. && fc.rm_drop <= 1.);
  assert (fc.retx_timeout > 0. && fc.max_retransmits >= 0)

type drop_model = Per_cell | Per_link

type counters = {
  mutable rm_lost : int;
  mutable retransmits : int;
  mutable abandoned : int;
  mutable superseded : int;
  mutable invariant_failures : int;
}

type pending = { tok : Events.token; at : float; bound : float }

type plane = {
  faults : faults;
  frng : Rng.t;
  drop : drop_model;
  counters : counters;
  mutable armed : pending option array;
}

let plane ~drop faults =
  {
    faults;
    frng = Rng.create faults.fault_seed;
    drop;
    counters =
      {
        rm_lost = 0;
        retransmits = 0;
        abandoned = 0;
        superseded = 0;
        invariant_failures = 0;
      };
    armed = [||];
  }

let arm p h q =
  let n = Array.length p.armed in
  if h >= n then begin
    let a = Array.make (max 16 (max (2 * n) (h + 1))) None in
    Array.blit p.armed 0 a 0 n;
    p.armed <- a
  end;
  p.armed.(h) <- Some q

type lifetime =
  | Hold_until of float
  | Depart_after_pieces of (Store.handle -> now:float -> unit)

type driver = {
  store : Store.t;
  plane : plane;
  lifetime : lifetime;
  before : now:float -> unit;
  on_attempt : now:float -> unit;
  retry : now:float -> bool;
  deliver : Store.handle -> now:float -> rate:float -> unit;
}

(* Cancelling an armed retransmission counts it as superseded exactly
   when the timer would have popped under the seed engine: always for
   run-to-exhaustion drivers ([bound = infinity]), and only for timers
   at or before the horizon under [Hold_until] (a bounded [Events.run]
   never pops later timers, so the seed never counted them). *)
let cancel_pending d h =
  Store.bump_gen d.store h;
  let p = d.plane in
  if h < Array.length p.armed then
    match p.armed.(h) with
    | None -> ()
    | Some q ->
        Events.cancel q.tok;
        p.armed.(h) <- None;
        if q.at <= q.bound then
          p.counters.superseded <- p.counters.superseded + 1

let dropped p store h =
  p.faults.rm_drop > 0.
  &&
  match p.drop with
  | Per_cell -> Rng.float p.frng < p.faults.rm_drop
  | Per_link ->
      (* One draw per hop, none after the first loss. *)
      let lost = ref false in
      Store.route_iter store h (fun _ ->
          if not !lost then lost := Rng.float p.frng < p.faults.rm_drop);
      !lost

(* One transmission attempt of the rate-change cell across the call's
   route; a drop loses it and arms a retransmission, which a newer
   change (or the departure) cancels out of the queue.  The timer's
   closure is built only then: a delivered cell allocates none. *)
let rec attempt d h ~rate ~gen ~bound retx engine =
  let now = Events.now engine in
  d.on_attempt ~now;
  let p = d.plane in
  if dropped p d.store h then begin
    p.counters.rm_lost <- p.counters.rm_lost + 1;
    if retx >= p.faults.max_retransmits then begin
      (* Give up signalling and settle on the desired demand anyway:
         the overload shows up in the demand accounting, as for a
         denied increase. *)
      p.counters.abandoned <- p.counters.abandoned + 1;
      d.deliver h ~now ~rate
    end
    else begin
      let at = now +. p.faults.retx_timeout in
      let tok =
        Events.schedule_token engine ~at (fun engine ->
            p.armed.(h) <- None;
            (* Newer changes and departures cancel the token eagerly,
               so a firing timer is never stale; the guard is pure
               defence. *)
            if Store.gen d.store h = gen then begin
              let now = Events.now engine in
              if d.retry ~now then begin
                p.counters.retransmits <- p.counters.retransmits + 1;
                attempt d h ~rate ~gen ~bound (retx + 1) engine
              end
            end)
      in
      arm p h { tok; at; bound }
    end
  end
  else d.deliver h ~now ~rate

let signal d h ~rate engine =
  cancel_pending d h;
  let bound =
    match d.lifetime with
    | Hold_until horizon -> horizon
    | Depart_after_pieces _ -> infinity
  in
  attempt d h ~rate ~gen:(Store.gen d.store h) ~bound 0 engine

(* The call's piece event: one closure per call, rescheduled after each
   piece, with the next piece's index in [Store.cursor]. *)
let play d h pieces =
  let rec piece engine =
    let now = Events.now engine in
    let idx = Store.cursor d.store h in
    match d.lifetime with
    | Hold_until horizon ->
        if now <= horizon then begin
          d.before ~now;
          let idx = if idx >= Array.length pieces then 0 else idx in
          let duration, rate = pieces.(idx) in
          signal d h ~rate engine;
          Store.set_cursor d.store h (idx + 1);
          Events.schedule_after engine ~delay:duration piece
        end
    | Depart_after_pieces depart ->
        d.before ~now;
        if idx >= Array.length pieces then begin
          cancel_pending d h;
          depart h ~now
        end
        else begin
          let duration, rate = pieces.(idx) in
          signal d h ~rate engine;
          Store.set_cursor d.store h (idx + 1);
          Events.schedule_after engine ~delay:duration piece
        end
  in
  (* A departing call's piece 0 is its setup, which the caller settled
     when it admitted the call. *)
  Store.set_cursor d.store h
    (match d.lifetime with Hold_until _ -> 0 | Depart_after_pieces _ -> 1);
  piece
