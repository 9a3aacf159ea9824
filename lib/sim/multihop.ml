module Schedule = Rcbr_core.Schedule
module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Session = Rcbr_net.Session
module Store = Rcbr_net.Store
module Service_model = Rcbr_policy.Service_model

type net_config = {
  schedule : Rcbr_core.Schedule.t;
  topology : Topology.t;
  transit_calls : int;  (** spread across the topology's routes *)
  local_calls_per_link : int;  (** single-hop cross traffic on every link *)
  horizon : float;
  seed : int;
  balance : bool;
  service : Service_model.t;
}

type metrics = {
  transit_attempts : int;
  transit_denials : int;
  local_attempts : int;
  local_denials : int;
  downgrades : int;
  mean_hop_utilization : float;
}

type fault_metrics = {
  rm_lost : int;  (** signalling cells the fault plane swallowed *)
  retransmits : int;
  abandoned : int;  (** rate changes applied only after give-up *)
  superseded : int;  (** retransmissions cancelled by a newer change *)
  crash_denials : int;  (** denials caused purely by a crashed hop *)
  invariant_failures : int;
}

let denial_fraction m =
  if m.transit_attempts = 0 then 0.
  else float_of_int m.transit_denials /. float_of_int m.transit_attempts

let run_net (nc : net_config) fc =
  let topo = nc.topology in
  let n_links = Topology.n_links topo in
  assert (nc.horizon > 0.);
  assert (nc.transit_calls >= 1 && nc.local_calls_per_link >= 0);
  Session.validate fc;
  Service_model.validate nc.service;
  let rng = Rng.create nc.seed in
  (* Fault randomness is a separate stream inside the plane, so a null
     fault spec reproduces the fault-free run bit for bit. *)
  let plane = Session.plane ~drop:Session.Per_link fc in
  let counters = plane.Session.counters in
  let engine = Events.create () in
  let links = Link.of_topology ~crashes:fc.Session.crashes topo in
  let store = Store.create () in
  let util = Call_step.utilization links in
  let transit = Call_step.counts () and local = Call_step.counts () in
  let counts_of h = if Store.transit store h then transit else local in
  let applies = ref 0 in
  let n_slots = Schedule.n_slots nc.schedule in
  let check_invariant () =
    counters.Session.invariant_failures <-
      counters.Session.invariant_failures
      + Store.audit ~links store
  in
  let audit_tick () =
    if fc.Session.check_invariants then begin
      incr applies;
      if !applies mod 64 = 0 then check_invariant ()
    end
  in
  let driver =
    {
      Session.store;
      plane;
      lifetime = Session.Hold_until nc.horizon;
      before = (fun ~now -> Call_step.advance util ~now);
      on_attempt = (fun ~now:_ -> ());
      retry =
        (fun ~now ->
          now <= nc.horizon
          && begin
               Call_step.advance util ~now;
               true
             end);
      deliver =
        (fun h ~now ~rate ->
          ignore
            (Call_step.change nc.service ~links store h ~now ~demanded:rate
               (counts_of h));
          audit_tick ());
    }
  in
  let start_call ~route ~transit =
    let shift = Rng.int rng n_slots in
    let pieces = Mbac.shifted_pieces nc.schedule ~shift in
    let h = Store.acquire store ~id:(Store.live_count store) ~route ~transit in
    (* Reserve the setup rate immediately so later placement decisions
       (the load balancer) see it; the first piece event is then a
       no-op rate-wise.  Nothing admits here, so the setup places the
       call (its MTS ladder attaches now) and is the model's decision
       and the settle, not a renegotiation attempt. *)
    let demanded = snd pieces.(0) in
    Store.attach_mts nc.service store h ~now:0.;
    let d = Store.decide nc.service ~links store h ~now:0. ~demanded in
    if Service_model.downgraded d then begin
      let k = counts_of h in
      k.Call_step.downgrades <- k.Call_step.downgrades + 1
    end;
    Store.settle ~links store h ~rate:(Service_model.granted_rate d ~demanded);
    audit_tick ();
    (* Desynchronize call starts within the first pieces. *)
    let offset = Rng.float rng in
    Events.schedule engine ~at:offset (Session.play driver h pieces)
  in
  let route_load route =
    Array.fold_left (fun acc id -> acc +. links.(id).Link.acct.demand) 0. route
  in
  let pick_route () =
    if not nc.balance then Rng.int rng (Topology.n_routes topo)
    else begin
      (* Call-level load balancing: the least-loaded alternative. *)
      let best = ref 0 in
      for r = 1 to Topology.n_routes topo - 1 do
        if
          route_load topo.Topology.routes.(r)
          < route_load topo.Topology.routes.(!best)
        then best := r
      done;
      !best
    end
  in
  (* Interleave transit starts with tiny local warm-up so the balancer
     sees evolving loads; all calls start within the first second. *)
  for _ = 1 to nc.transit_calls do
    let r = pick_route () in
    start_call ~route:topo.Topology.routes.(r) ~transit:true
  done;
  for id = 0 to n_links - 1 do
    for _ = 1 to nc.local_calls_per_link do
      start_call ~route:[| id |] ~transit:false
    done
  done;
  (* [advance_to] (not bare [run ~until]) so the engine clock lands on
     the horizon rather than the last fired event; the utilization
     integral below closes its own window with [advance]. *)
  Events.advance_to engine ~at:nc.horizon;
  Call_step.advance util ~now:nc.horizon;
  if fc.Session.check_invariants then check_invariant ();
  ( {
      transit_attempts = transit.Call_step.attempts;
      transit_denials = transit.Call_step.denied;
      local_attempts = local.Call_step.attempts;
      local_denials = local.Call_step.denied;
      downgrades = transit.Call_step.downgrades + local.Call_step.downgrades;
      mean_hop_utilization = Call_step.integral util /. nc.horizon;
    },
    {
      rm_lost = counters.Session.rm_lost;
      retransmits = counters.Session.retransmits;
      abandoned = counters.Session.abandoned;
      superseded = counters.Session.superseded;
      crash_denials =
        transit.Call_step.crash_denials + local.Call_step.crash_denials;
      invariant_failures = counters.Session.invariant_failures;
    } )

(* Hop-sweep batch: each config is an independent seeded simulation. *)
let run_many ?pool configs =
  Rcbr_util.Pool.map ?pool (fun nc -> fst (run_net nc Session.no_faults)) configs
