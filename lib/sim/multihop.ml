module Schedule = Rcbr_core.Schedule
module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Session = Rcbr_net.Session
module Store = Rcbr_net.Store
module Service_model = Rcbr_policy.Service_model

type config = {
  schedule : Rcbr_core.Schedule.t;
  hops : int;
  capacity_per_hop : float;
  transit_calls : int;
  local_calls_per_hop : int;
  horizon : float;
  seed : int;
}

type balanced_config = {
  base : config;
  routes : int;  (** parallel alternative paths, each [hops] long *)
  balance : bool;  (** least-loaded route choice vs uniform random *)
}

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
  let util_integral = ref 0. and last = ref 0. in
  let advance now =
    let dt = now -. !last in
    if dt > 0. then begin
      let acc = ref 0. in
      Array.iter
        (fun l ->
          acc := !acc +. Float.min 1. (l.Link.demand /. l.Link.capacity))
        links;
      util_integral := !util_integral +. (!acc /. float_of_int n_links *. dt);
      last := now
    end
  in
  let transit_attempts = ref 0 and transit_denials = ref 0 in
  let local_attempts = ref 0 and local_denials = ref 0 in
  let downgrades = ref 0 in
  let applies = ref 0 in
  let n_slots = Schedule.n_slots nc.schedule in
  let check_invariant () =
    counters.Session.invariant_failures <-
      counters.Session.invariant_failures
      + Store.audit ~links store
  in
  (* Demand is the *desired* rate (settle semantics): a denied increase
     is counted and the demand still rises — the overload shows up in
     the utilization cap.  Every service model runs this one path; a
     call's setup ([count = false]) is a decision too, but not a
     renegotiation attempt. *)
  let apply_change h rate ~now ~count =
    let applied = Store.applied store h in
    let decision = Store.decide nc.service ~links store h ~now ~demanded:rate in
    let granted = Service_model.granted_rate decision ~demanded:rate in
    if Service_model.downgraded decision then incr downgrades;
    if count && rate > applied then begin
      let transit = Store.transit store h in
      if transit then incr transit_attempts else incr local_attempts;
      let denied =
        match Service_model.denial decision ~increase:true with
        | Service_model.Not_denied -> false
        | Service_model.Denied -> true
        | Service_model.Denied_unless_fits ->
            not (Store.fits ~links store h ~rate:granted ~now)
      in
      if denied then begin
        if transit then incr transit_denials else incr local_denials;
        if Store.blocked ~links store h ~now then
          counters.Session.crash_denials <- counters.Session.crash_denials + 1
      end
    end;
    Store.settle ~links store h ~rate:granted;
    if fc.Session.check_invariants then begin
      incr applies;
      if !applies mod 64 = 0 then check_invariant ()
    end
  in
  let driver =
    {
      Session.store;
      plane;
      reliable_setup = false;
      lifetime = Session.Hold_until nc.horizon;
      before = (fun ~now -> advance now);
      on_attempt = (fun ~now:_ -> ());
      retry =
        (fun ~now ->
          now <= nc.horizon
          && begin
               advance now;
               true
             end);
      deliver =
        (fun h ~now ~idx:_ ~rate -> apply_change h rate ~now ~count:true);
    }
  in
  let start_call ~route ~transit =
    let shift = Rng.int rng n_slots in
    let pieces = Mbac.shifted_pieces nc.schedule ~shift in
    let h = Store.acquire store ~id:(Store.live_count store) ~route ~transit in
    (* Reserve the setup rate immediately so later placement decisions
       (the load balancer) see it; the first piece event is then a
       no-op rate-wise.  Call setup is signalled reliably and is not a
       renegotiation attempt. *)
    apply_change h (snd pieces.(0)) ~now:0. ~count:false;
    (* Desynchronize call starts within the first pieces. *)
    let offset = Rng.float rng in
    Events.schedule engine ~at:offset (Session.play driver h pieces 0)
  in
  let route_load route =
    Array.fold_left (fun acc id -> acc +. links.(id).Link.demand) 0. route
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
  advance nc.horizon;
  if fc.Session.check_invariants then check_invariant ();
  ( {
      transit_attempts = !transit_attempts;
      transit_denials = !transit_denials;
      local_attempts = !local_attempts;
      local_denials = !local_denials;
      downgrades = !downgrades;
      mean_hop_utilization = !util_integral /. nc.horizon;
    },
    {
      rm_lost = counters.Session.rm_lost;
      retransmits = counters.Session.retransmits;
      abandoned = counters.Session.abandoned;
      superseded = counters.Session.superseded;
      crash_denials = counters.Session.crash_denials;
      invariant_failures = counters.Session.invariant_failures;
    } )

let run_faulty bc fc =
  let c = bc.base in
  assert (c.hops >= 1 && c.capacity_per_hop > 0. && c.horizon > 0.);
  assert (c.transit_calls >= 1 && c.local_calls_per_hop >= 0);
  assert (bc.routes >= 1);
  let topology =
    Topology.parallel_routes ~routes:bc.routes ~hops:c.hops
      ~capacity:c.capacity_per_hop
  in
  (* The historical fault record names hops; the blackout applies to
     that hop on every route.  Expand to link ids for the general core
     (the historical hop-range filter included). *)
  let crashes =
    List.concat_map
      (fun (h, a, r) ->
        if h >= 0 && h < c.hops then
          List.init bc.routes (fun rt -> ((rt * c.hops) + h, a, r))
        else [])
      fc.Session.crashes
  in
  run_net
    {
      schedule = c.schedule;
      topology;
      transit_calls = c.transit_calls;
      local_calls_per_link = c.local_calls_per_hop;
      horizon = c.horizon;
      seed = c.seed;
      balance = bc.balance;
      service = Service_model.Renegotiate;
    }
    { fc with crashes }

let run_balanced bc = fst (run_faulty bc Session.no_faults)
let run c = run_balanced { base = c; routes = 1; balance = false }

(* Hop-sweep batch: each config is an independent seeded simulation. *)
let run_many ?pool configs = Rcbr_util.Pool.map ?pool run configs
