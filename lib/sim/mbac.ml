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
  warmup_windows : int;
  min_windows : int;
  max_windows : int;
  relative_precision : float;
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
    warmup_windows = 1;
    min_windows = 10;
    max_windows = 200;
    relative_precision = 0.2;
    faults = Session.no_faults;
    service = Service_model.Renegotiate;
  }

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
  let pieces = ref [] in
  let push slots rate =
    if slots > 0 then pieces := (float_of_int slots /. fps, rate) :: !pieces
  in
  push (seg_end !j - shift) segs.(!j).Schedule.rate;
  for i = !j + 1 to m - 1 do
    push (seg_end i - segs.(i).Schedule.start_slot) segs.(i).Schedule.rate
  done;
  for i = 0 to !j - 1 do
    push (seg_end i - segs.(i).Schedule.start_slot) segs.(i).Schedule.rate
  done;
  push (shift - segs.(!j).Schedule.start_slot) segs.(!j).Schedule.rate;
  Array.of_list (List.rev !pieces)

let run_with_pieces (c : config) ~make_pieces ~controller =
  assert (c.capacity > 0. && c.arrival_rate > 0.);
  assert (c.warmup_windows >= 0 && c.min_windows >= 1);
  assert (c.max_windows >= c.warmup_windows + c.min_windows);
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
  let arrivals = ref 0 and blocked = ref 0 in
  let reneg_up = ref 0 and reneg_denied = ref 0 in
  let downgrades = ref 0 and upgrades = ref 0 in
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
     until the retransmission (or the give-up) lands.  Every service
     model runs this one path; the demand update and the overflow
     probe are the seed's float expressions (DESIGN.md §10).  Piece 0
     is the call's setup, which the arrival already counted. *)
  let deliver h ~now ~idx ~rate =
    let applied = Store.applied store h in
    let decision = Store.decide c.service ~links store h ~now ~demanded:rate in
    let granted = Service_model.granted_rate decision ~demanded:rate in
    let new_demand = link.Link.demand -. applied +. granted in
    if idx > 0 then begin
      if Service_model.downgraded decision then incr downgrades;
      let increase = rate > applied in
      if increase then incr reneg_up;
      let denied =
        match Service_model.denial decision ~increase with
        | Service_model.Not_denied -> false
        | Service_model.Denied -> true
        | Service_model.Denied_unless_fits ->
            new_demand > link.Link.capacity || Link.down link ~now
      in
      if denied then begin
        incr reneg_denied;
        if Link.down link ~now then
          counters.Session.crash_denials <- counters.Session.crash_denials + 1
      end;
      Controller.on_renegotiate controller ~now ~call:(Store.id store h)
        ~rate:granted
    end;
    link.Link.demand <- new_demand;
    Store.set_applied store h granted;
    if audit_enabled then begin
      incr applies;
      if !applies mod 64 = 0 then record_audit ()
    end
  in
  let depart h ~now =
    (* Departure: release whatever rate the link believes.  A change
       still in retransmission simply never applies. *)
    link.Link.demand <- link.Link.demand -. Store.applied store h;
    link.Link.n_calls <- link.Link.n_calls - 1;
    Controller.on_depart controller ~now ~call:(Store.id store h);
    Store.release store h;
    (* Spare capacity just appeared: restore downgraded calls. *)
    Store.upgrade_scan c.service ~links store ~now (fun h r ->
        incr upgrades;
        Store.settle ~links store h ~rate:r;
        Controller.on_renegotiate controller ~now ~call:(Store.id store h)
          ~rate:r)
  in
  let driver =
    {
      Session.store;
      plane;
      (* Call setup (piece 0) is signalled reliably: admission already
         happened at the arrival event. *)
      reliable_setup = true;
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
    incr arrivals;
    (* The Chernoff gate runs first and the call is drawn only when it
       admits, as in the seed; the service model then places it. *)
    (if Controller.admit controller ~now then begin
       let pieces = make_pieces rng in
       let demanded = snd pieces.(0) in
       let id = !next_call_id in
       let h = Store.acquire store ~id ~route ~transit:false in
       match
         Controller.place controller c.service ~demanded ~fits:(fun r ->
             Store.fits ~links store h ~rate:r ~now)
       with
       | Service_model.Settle_floor _ ->
           Store.release store h;
           incr blocked
       | decision ->
           if Service_model.downgraded decision then incr downgrades;
           incr next_call_id;
           link.Link.n_calls <- link.Link.n_calls + 1;
           Controller.on_admit controller ~now ~call:id
             ~rate:(Service_model.granted_rate decision ~demanded);
           Session.play driver h pieces 0 engine
     end
     else incr blocked);
    if not !stop then
      Events.schedule_after engine
        ~delay:(Rng.exponential rng c.arrival_rate)
        arrival_event
  in
  let rec window_event engine =
    let now = Events.now engine in
    Link.advance link ~now;
    incr windows_done;
    if !windows_done > c.warmup_windows then begin
      let failure =
        if link.Link.offered_bits > 0. then
          link.Link.lost_bits /. link.Link.offered_bits
        else 0.
      in
      Stats.Online.add failure_stats failure;
      Stats.Online.add util_stats
        (link.Link.granted_bits /. (c.capacity *. window));
      Stats.Online.add calls_stats (link.Link.call_seconds /. window)
    end;
    Link.reset_window link;
    let samples = Stats.Online.count failure_stats in
    let enough_precision =
      samples >= c.min_windows
      && Stats.Online.relative_precision failure_stats
         <= c.relative_precision
      && Stats.Online.relative_precision util_stats <= c.relative_precision
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
      (if !arrivals = 0 then 0.
       else float_of_int !blocked /. float_of_int !arrivals);
    denial_fraction =
      (if !reneg_up = 0 then 0.
       else float_of_int !reneg_denied /. float_of_int !reneg_up);
    mean_calls_in_system = Stats.Online.mean calls_stats;
    windows = Stats.Online.count failure_stats;
    signalling_dropped = counters.Session.rm_lost;
    signalling_retransmits = counters.Session.retransmits;
    signalling_abandoned = counters.Session.abandoned;
    invariant_failures = counters.Session.invariant_failures;
    downgrades = !downgrades;
    upgrades = !upgrades;
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
