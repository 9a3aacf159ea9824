module Schedule = Rcbr_core.Schedule
module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng
module Stats = Rcbr_util.Stats
module Controller = Rcbr_admission.Controller
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Session = Rcbr_net.Session
module Store = Rcbr_net.Store
module Service_model = Rcbr_policy.Service_model

type config = {
  schedule : Rcbr_core.Schedule.t;
  capacity : float;
  arrival_rate : float;
  target : float;
  seed : int;
  min_windows : int;
  max_windows : int;
  faults : Session.faults;
  service : Service_model.t;
}

let default_config ~schedule ~capacity ~arrival_rate ~target ~seed =
  {
    schedule;
    capacity;
    arrival_rate;
    target;
    seed;
    min_windows = 10;
    max_windows = 200;
    faults = Session.no_faults;
    service = Service_model.Renegotiate;
  }

(* The first window is warm-up, never sampled; sampling stops once both
   estimates' 95% confidence intervals are within this fraction of the
   estimate (the paper's stopping rule, Section V-B). *)
let warmup_windows = 1
let relative_precision = 0.2

let offered_load c =
  c.arrival_rate *. Schedule.duration c.schedule
  *. Schedule.mean_rate c.schedule /. c.capacity

type metrics = {
  failure_probability : float;
  failure_halfwidth : float;
  utilization : float;
  utilization_halfwidth : float;
  call_blocking : float;
  denial_fraction : float;
  mean_calls_in_system : float;
  windows : int;
  signalling_dropped : int;
  signalling_retransmits : int;
  signalling_abandoned : int;
  invariant_failures : int;
  downgrades : int;
  upgrades : int;
  admission : Controller.stats;
}

(* The (duration_s, rate) pieces of a schedule started at a circular
   phase of [shift] slots, in play order.  O(#segments). *)
let shifted_pieces schedule ~shift =
  let segs = Schedule.segments schedule in
  let m = Array.length segs in
  let n = Schedule.n_slots schedule in
  let fps = Schedule.fps schedule in
  let shift = ((shift mod n) + n) mod n in
  let seg_end i = if i + 1 < m then segs.(i + 1).Schedule.start_slot else n in
  (* Segment containing the shift slot. *)
  let j = ref 0 in
  while !j + 1 < m && segs.(!j + 1).Schedule.start_slot <= shift do
    incr j
  done;
  let j = !j in
  (* Play order: the tail of segment [j] from the shift, the segments
     after it, those before it, then the head of [j] up to the shift;
     empty pieces are dropped. *)
  let slots k =
    if k = 0 then seg_end j - shift
    else if k = m then shift - segs.(j).Schedule.start_slot
    else
      let i = (j + k) mod m in
      seg_end i - segs.(i).Schedule.start_slot
  in
  let n_pieces = ref 0 in
  for k = 0 to m do
    if slots k > 0 then incr n_pieces
  done;
  let pieces = Array.make !n_pieces (0., 0.) in
  let p = ref 0 in
  for k = 0 to m do
    let s = slots k in
    if s > 0 then begin
      let rate = segs.((j + k) mod m).Schedule.rate in
      pieces.(!p) <- (float_of_int s /. fps, rate);
      incr p
    end
  done;
  pieces

let run_with_pieces (c : config) ~make_pieces ~controller =
  assert (c.capacity > 0. && c.arrival_rate > 0.);
  assert (c.min_windows >= 1);
  assert (c.max_windows >= warmup_windows + c.min_windows);
  Session.validate c.faults;
  Service_model.validate c.service;
  let rng = Rng.create c.seed in
  (* Fault randomness lives on its own stream inside the plane, which
     never draws while [rm_drop = 0.]. *)
  let plane = Session.plane ~drop:Session.Per_cell c.faults in
  let counters = plane.Session.counters in
  let audit_enabled = c.faults.Session.check_invariants in
  let engine = Events.create () in
  let window = Schedule.duration c.schedule in
  let topology = Topology.single_link ~capacity:c.capacity in
  let link = (Link.of_topology ~crashes:c.faults.Session.crashes topology).(0) in
  let links = [| link |] in
  let store = Store.create () in
  let route = [| 0 |] in
  let next_call_id = ref 0 in
  let k = Call_step.counts () in
  let failure_stats = Stats.Online.create () in
  let util_stats = Stats.Online.create () in
  let calls_stats = Stats.Online.create () in
  let windows_done = ref 0 in
  let stop = ref false in
  let applies = ref 0 in
  let record_audit () =
    counters.Session.invariant_failures <-
      counters.Session.invariant_failures + Store.audit ~links store
  in
  (* One call's life: walk its pieces, then depart.  The call's
     [applied] is the rate the link currently accounts for it; with a
     reliable signalling plane it always equals the previous piece's
     granted rate, but a dropped rate-change cell leaves it behind
     until the retransmission (or the give-up) lands. *)
  let deliver h ~now ~rate =
    let d = Call_step.change c.service ~links store h ~now ~demanded:rate k in
    Controller.on_renegotiate controller ~now ~call:h
      ~rate:(Service_model.granted_rate d ~demanded:rate);
    if audit_enabled then begin
      incr applies;
      if !applies mod 64 = 0 then record_audit ()
    end
  in
  let upgrade h ~now ~rate =
    Call_step.upgrade controller ~links store h ~now ~rate k
  in
  let depart h ~now =
    (* Departure: release whatever rate the link believes.  A change
       still in retransmission simply never applies. *)
    Store.settle ~links store h ~rate:0.;
    link.Link.n_calls <- link.Link.n_calls - 1;
    Controller.on_depart controller ~now ~call:h;
    Store.release store h;
    (* Spare capacity just appeared: restore downgraded calls. *)
    Store.drain_upgrades c.service ~links store ~now upgrade
  in
  let driver =
    {
      Session.store;
      plane;
      lifetime = Session.Depart_after_pieces depart;
      before = (fun ~now -> Link.advance link ~now);
      on_attempt = (fun ~now -> Link.advance link ~now);
      retry = (fun ~now:_ -> true);
      deliver;
    }
  in
  let rec arrival_event engine =
    let now = Events.now engine in
    Link.advance link ~now;
    (* The Chernoff gate runs first and the call is drawn only when it
       admits, as in the seed; the shared arrival step then places it. *)
    (if Controller.admit controller ~now then begin
       let pieces = make_pieces rng in
       let h = Store.acquire store ~id:!next_call_id ~route ~transit:false in
       if
         Call_step.arrive controller c.service ~links store h ~now
           ~demanded:(snd pieces.(0)) k
       then begin
         incr next_call_id;
         link.Link.n_calls <- link.Link.n_calls + 1;
         (* Piece 0 is the setup the arrival step just settled, so the
            walk starts at piece 1, once piece 0 has played. *)
         Events.schedule_after engine ~delay:(fst pieces.(0))
           (Session.play driver h pieces)
       end
     end
     else k.blocked <- k.blocked + 1);
    if not !stop then
      Events.schedule_after engine
        ~delay:(Rng.exponential rng c.arrival_rate)
        arrival_event
  in
  let rec window_event engine =
    let now = Events.now engine in
    Link.advance link ~now;
    incr windows_done;
    if !windows_done > warmup_windows then begin
      let failure =
        if link.Link.acct.offered_bits > 0. then
          link.Link.acct.lost_bits /. link.Link.acct.offered_bits
        else 0.
      in
      Stats.Online.add failure_stats failure;
      Stats.Online.add util_stats
        (link.Link.acct.granted_bits /. (c.capacity *. window));
      Stats.Online.add calls_stats (link.Link.acct.call_seconds /. window)
    end;
    Link.reset_window link;
    let samples = Stats.Online.count failure_stats in
    let enough_precision =
      samples >= c.min_windows
      && Stats.Online.relative_precision failure_stats <= relative_precision
      && Stats.Online.relative_precision util_stats <= relative_precision
    in
    let confidently_below_target =
      samples >= c.min_windows
      && Stats.Online.mean failure_stats
         +. Stats.Online.confidence_halfwidth failure_stats
         < c.target
    in
    if
      enough_precision || confidently_below_target
      || !windows_done >= c.max_windows
    then stop := true
    else Events.schedule_after engine ~delay:window window_event
  in
  Events.schedule engine ~at:(Rng.exponential rng c.arrival_rate) arrival_event;
  Events.schedule engine ~at:window window_event;
  while (not !stop) && Events.step engine do
    ()
  done;
  if audit_enabled then record_audit ();
  {
    failure_probability = Stats.Online.mean failure_stats;
    failure_halfwidth = Stats.Online.confidence_halfwidth failure_stats;
    utilization = Stats.Online.mean util_stats;
    utilization_halfwidth = Stats.Online.confidence_halfwidth util_stats;
    call_blocking =
      (if k.admitted + k.blocked = 0 then 0.
       else float_of_int k.blocked /. float_of_int (k.admitted + k.blocked));
    denial_fraction =
      (if k.attempts = 0 then 0.
       else float_of_int k.denied /. float_of_int k.attempts);
    mean_calls_in_system = Stats.Online.mean calls_stats;
    windows = Stats.Online.count failure_stats;
    signalling_dropped = counters.Session.rm_lost;
    signalling_retransmits = counters.Session.retransmits;
    signalling_abandoned = counters.Session.abandoned;
    invariant_failures = counters.Session.invariant_failures;
    downgrades = k.downgrades;
    upgrades = k.upgrades;
    admission = Controller.stats controller;
  }

let run (c : config) ~controller =
  let n_slots = Schedule.n_slots c.schedule in
  let make_pieces rng =
    shifted_pieces c.schedule ~shift:(Rng.int rng n_slots)
  in
  run_with_pieces c ~make_pieces ~controller

(* Each grid point of the Figs. 7-10 load x capacity sweeps is an
   independent simulation driven entirely by its own config seed, so a
   batch fans out over the pool.  Controllers are stateful and must be
   constructed inside the task, hence the factory. *)
let run_many ?pool entries =
  Rcbr_util.Pool.map_array ?pool
    (fun (c, make_controller) -> run c ~controller:(make_controller ()))
    entries
