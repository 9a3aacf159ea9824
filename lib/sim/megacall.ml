(* Million-call simulation engine.

   Scale comes from four pieces working together: the {!Rcbr_net.Store}
   struct-of-arrays session store (no per-call heap records), the
   {!Rcbr_queue.Wheel} event heap driven directly with integer session
   handles (no per-event closures), the admission controller
   (its decision cache is keyed on the loaded weights, so a tick's
   arrival burst costs one Chernoff probe and one warm search), and
   link-sharding across the Domain {!Rcbr_util.Pool}.

   Sharding model: each shard owns a disjoint [rows x cols] grid mesh
   (its own links, store, controller, wheel and pre-split RNG) and
   simulates the same timeline independently — shard-by-link ownership
   with no cross-shard routes, so no cross-shard synchronization can
   reorder float operations.  The merge is an ordered reduction over
   the shard array returned by the order-preserving [Pool.map_array],
   making every metric and the outcome hash bit-identical for any
   [-j] (the PR 2/3 invariant).

   Timeline per shard: arrivals come in batches at tick boundaries
   (ramp quota plus replacements for departures since the previous
   tick); each admitted call schedules its renegotiations on the wheel
   at exponential holding times, walks [pieces_per_call] rate changes
   and departs.  Renegotiation events between ticks fire at their own
   event times, in exact (time, seq) order. *)

module Rng = Rcbr_util.Rng
module Pool = Rcbr_util.Pool
module Wheel = Rcbr_queue.Wheel
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Service_model = Rcbr_policy.Service_model

type config = {
  shards : int;  (** independent sub-meshes, one Pool task each *)
  rows : int;
  cols : int;  (** per-shard grid (see {!Topology.grid}) *)
  calls_per_shard : int;  (** ramp target population per shard *)
  levels : float array;  (** rate levels calls renegotiate among, b/s *)
  link_load_factor : float;
      (** per-link capacity as a multiple of the expected per-link load
          at the ramp target *)
  admit_margin : float;
      (** controller capacity as a multiple of [calls * mean level] *)
  target : float;  (** admission overflow target *)
  mean_hold : float;  (** mean seconds between a call's rate changes *)
  pieces_per_call : int;  (** rate changes before departure *)
  tick : float;  (** arrival-batch period, s *)
  ramp_ticks : int;  (** ticks over which the ramp quota is spread *)
  horizon : float;  (** churn seconds simulated after the ramp *)
  seed : int;
  service : Service_model.t;  (** DESIGN.md §15 *)
}

let default ~concurrent () =
  let shards = 8 in
  let calls_per_shard = (concurrent + shards - 1) / shards in
  {
    shards;
    rows = 8;
    cols = 8;
    calls_per_shard;
    levels = [| 64_000.; 256_000.; 1_024_000. |];
    link_load_factor = 1.05;
    admit_margin = 1.1;
    target = 1e-6;
    mean_hold = 50.;
    pieces_per_call = 4;
    tick = 1.;
    ramp_ticks = 8;
    horizon = 8.;
    seed = 42;
    service = Service_model.Renegotiate;
  }

type shard_metrics = {
  arrivals : int;
  admitted : int;
  admission_denied : int;
  reneg_attempts : int;
  reneg_denied : int;
  departures : int;
  events_fired : int;
  downgrades : int;
  upgrades : int;
  peak_concurrent : int;
  final_concurrent : int;
  decision_hash : int;
  batch_hits : int;
  audit_violations : int;
  shard_hash : int;
}

type metrics = {
  shards_ : shard_metrics array;  (** per shard, in shard order *)
  total_arrivals : int;
  total_admitted : int;
  total_denied : int;
  total_reneg_attempts : int;
  total_reneg_denied : int;
  total_departures : int;
  total_events : int;
  total_downgrades : int;
  total_upgrades : int;
  concurrent_calls : int;  (** sum of final per-shard populations *)
  peak_concurrent : int;  (** sum of per-shard peaks *)
  total_batch_hits : int;
  total_memo_hits : int;
  audit_violations : int;
  outcome_hash : int;  (** ordered FNV fold of the shard hashes *)
}

(* Both mixers are registered determinism sinks (T001) in the typed
   lint's repo config (DESIGN.md §14) — tainted values must not reach
   them, directly or folded (List.fold_left fnv ...); renaming or
   moving them must update [Tlint.repo_config]. *)
let fnv h v = (h lxor v) * 0x100000001b3 land max_int
let fnv_float h x = fnv h (Int64.to_int (Int64.bits_of_float x) land max_int)

let mean_level levels =
  Array.fold_left ( +. ) 0. levels /. float_of_int (Array.length levels)

let run_shard cfg rng =
  let topo = Topology.grid ~rows:cfg.rows ~cols:cfg.cols ~capacity:1. in
  let n_routes = Topology.n_routes topo in
  let hops = Array.fold_left ( + ) 0 (Topology.route_lengths topo) in
  let mean_route = float_of_int hops /. float_of_int n_routes in
  let mean_rate = mean_level cfg.levels in
  (* Expected per-link load at the ramp target, assuming uniform route
     choice: calls * mean_rate * mean_route_len / n_links. *)
  let n_links = Topology.n_links topo in
  let per_link =
    float_of_int cfg.calls_per_shard *. mean_rate *. mean_route
    /. float_of_int n_links
  in
  let link_capacity = cfg.link_load_factor *. per_link in
  let topo =
    Topology.grid ~rows:cfg.rows ~cols:cfg.cols ~capacity:link_capacity
  in
  let links = Link.of_topology topo in
  let store = Store.create ~capacity_hint:cfg.calls_per_shard () in
  let ctrl =
    Controller.memory
      ~capacity:
        (cfg.admit_margin *. float_of_int cfg.calls_per_shard *. mean_rate)
      ~target:cfg.target
  in
  let wheel : Store.handle Wheel.t = Wheel.create () in
  let arrivals = ref 0
  and admitted = ref 0
  and admission_denied = ref 0
  and reneg_attempts = ref 0
  and reneg_denied = ref 0
  and departures = ref 0
  and events_fired = ref 0
  and downgrades = ref 0
  and upgrades = ref 0
  and peak = ref 0
  and next_id = ref 0
  and replacements = ref 0 in
  let n_levels = Array.length cfg.levels in
  let routes = (topo : Topology.t).routes in
  (* Downgraded calls waiting for spare capacity, oldest first (only
     [Downgrade] grants below demand at a tier, so only it queues).
     Handles recycle, so entries carry the call id; stale or
     already-restored entries are dropped at drain time. *)
  let upq : (Store.handle * int) Queue.t = Queue.create () in
  let rec drain_upgrades now =
    match Queue.peek_opt upq with
    | None -> ()
    | Some (h, id0) ->
        if
          (not (Store.is_live store h))
          || Store.id store h <> id0
          || Store.demanded store h <= Store.applied store h
        then begin
          ignore (Queue.pop upq);
          drain_upgrades now
        end
        else begin
          match Store.try_upgrade cfg.service ~links store h ~now with
          | None -> () (* head-of-line blocking keeps the order fair *)
          | Some r ->
              incr upgrades;
              Store.settle ~links store h ~rate:r;
              Controller.on_renegotiate ctrl ~now ~call:id0 ~rate:r;
              if Store.demanded store h <= r then begin
                ignore (Queue.pop upq);
                drain_upgrades now
              end
              (* else: partially restored — stays at the head, and the
                 next spare-capacity event climbs further *)
        end
  in
  (* One arrival path for every service model: the Chernoff gate first,
     then the route and level draws only when it admits (the seed's
     draw order), then the model places the call. *)
  let try_arrival now =
    incr arrivals;
    if Controller.admit ctrl ~now then begin
      let id = !next_id in
      let route = routes.(Rng.int rng n_routes) in
      let h = Store.acquire store ~id ~route ~transit:(Array.length route > 1) in
      let lvl = Rng.int rng n_levels in
      let demanded = cfg.levels.(lvl) in
      match
        Controller.place ctrl cfg.service ~demanded ~fits:(fun r ->
            Store.fits ~links store h ~rate:r ~now)
      with
      | Service_model.Settle_floor _ ->
          Store.release store h;
          incr admission_denied
      | decision ->
          let granted = Service_model.granted_rate decision ~demanded in
          incr admitted;
          incr next_id;
          Store.set_level store h lvl;
          Store.set_demanded store h demanded;
          Store.settle ~links store h ~rate:granted;
          Controller.on_admit ctrl ~now ~call:id ~rate:granted;
          (* Calls are policed from admission on. *)
          (match cfg.service with
          | Service_model.Mts_profile p -> Store.attach_mts store h p ~now
          | _ -> ());
          if Service_model.downgraded decision then begin
            incr downgrades;
            Queue.push (h, id) upq
          end;
          if Store.live_count store > !peak then peak := Store.live_count store;
          ignore
            (Wheel.push wheel
               ~time:(now +. Rng.exponential rng (1. /. cfg.mean_hold))
               h)
    end
    else incr admission_denied
  in
  let fire h now =
    incr events_fired;
    let cursor = Store.cursor store h + 1 in
    Store.set_cursor store h cursor;
    if cursor > cfg.pieces_per_call then begin
      (* Departure: free the capacity and queue a replacement arrival
         for the next tick batch. *)
      Controller.on_depart ctrl ~now ~call:(Store.id store h);
      Store.settle ~links store h ~rate:0.;
      Store.release store h;
      incr departures;
      incr replacements;
      (* Spare capacity just appeared: restore downgraded calls. *)
      drain_upgrades now
    end
    else begin
      (* One rate-change path for every service model: decide, count
         by the shared rule, then settle — settle semantics, as
         everywhere in this repo: the demand moves whether or not it
         fits; overload shows up in the accounting. *)
      let lvl = Rng.int rng n_levels in
      let demanded = cfg.levels.(lvl) in
      let increase = demanded > Store.applied store h in
      if increase then incr reneg_attempts;
      let d = Store.decide cfg.service ~links store h ~now ~demanded in
      let granted = Service_model.granted_rate d ~demanded in
      if Service_model.downgraded d then incr downgrades;
      (match Service_model.denial d ~increase with
      | Service_model.Not_denied -> ()
      | Service_model.Denied -> incr reneg_denied
      | Service_model.Denied_unless_fits ->
          if not (Store.fits ~links store h ~rate:granted ~now) then
            incr reneg_denied);
      (match d with
      | Service_model.Downgrade_to _ | Service_model.Settle_floor _ ->
          Queue.push (h, Store.id store h) upq
      | Service_model.Grant | Service_model.Police_to _ -> ());
      Store.set_level store h lvl;
      Store.settle ~links store h ~rate:granted;
      Controller.on_renegotiate ctrl ~now ~call:(Store.id store h) ~rate:granted;
      ignore
        (Wheel.push wheel
           ~time:(now +. Rng.exponential rng (1. /. cfg.mean_hold))
           h)
    end
  in
  let fire_until bound =
    let continue_ = ref true in
    while !continue_ do
      match Wheel.peek wheel with
      | Some (at, _) when at <= bound -> (
          match Wheel.pop wheel with
          | Some (at, h) -> fire h at
          | None -> continue_ := false)
      | _ -> continue_ := false
    done
  in
  let quota = (cfg.calls_per_shard + cfg.ramp_ticks - 1) / cfg.ramp_ticks in
  let n_ticks =
    cfg.ramp_ticks + int_of_float (Float.ceil (cfg.horizon /. cfg.tick))
  in
  for k = 1 to n_ticks do
    let now = float_of_int k *. cfg.tick in
    fire_until now;
    let ramp =
      if k <= cfg.ramp_ticks then
        min quota (cfg.calls_per_shard - (quota * (k - 1)))
      else 0
    in
    let batch = max 0 ramp + !replacements in
    replacements := 0;
    for _ = 1 to batch do
      try_arrival now
    done
  done;
  let audit_violations = Store.audit ~links store in
  let stats = Controller.stats ctrl in
  let demand_hash =
    Array.fold_left (fun h l -> fnv_float h l.Link.demand) 0 links
  in
  let shard_hash =
    (* The seed fold list is extended with the downgrade/upgrade
       counters only under the new models, so the Renegotiate hash
       stays bit-identical to the pre-refactor one. *)
    let folded =
      [
        stats.Controller.decision_hash;
        !arrivals;
        !admitted;
        !reneg_denied;
        !departures;
        !events_fired;
        Store.live_count store;
      ]
      @
      match cfg.service with
      | Service_model.Renegotiate -> []
      | _ -> [ !downgrades; !upgrades ]
    in
    List.fold_left fnv demand_hash folded
  in
  {
    arrivals = !arrivals;
    admitted = !admitted;
    admission_denied = !admission_denied;
    reneg_attempts = !reneg_attempts;
    reneg_denied = !reneg_denied;
    departures = !departures;
    events_fired = !events_fired;
    downgrades = !downgrades;
    upgrades = !upgrades;
    peak_concurrent = !peak;
    final_concurrent = Store.live_count store;
    decision_hash = stats.Controller.decision_hash;
    batch_hits = stats.Controller.batch_hits;
    audit_violations;
    shard_hash;
  }

let run ?pool cfg =
  assert (cfg.shards > 0 && cfg.calls_per_shard > 0);
  assert (cfg.pieces_per_call >= 1 && cfg.ramp_ticks >= 1);
  assert (Array.length cfg.levels > 0);
  Service_model.validate cfg.service;
  (* Pre-split one RNG per shard *before* submission, so the streams —
     and with them every shard result — do not depend on scheduling. *)
  let root = Rng.create cfg.seed in
  let rngs = Array.init cfg.shards (fun _ -> Rng.split root) in
  let shards_ = Pool.map_array ?pool (run_shard cfg) rngs in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards_ in
  {
    shards_;
    total_arrivals = sum (fun s -> s.arrivals);
    total_admitted = sum (fun s -> s.admitted);
    total_denied = sum (fun s -> s.admission_denied);
    total_reneg_attempts = sum (fun s -> s.reneg_attempts);
    total_reneg_denied = sum (fun s -> s.reneg_denied);
    total_departures = sum (fun s -> s.departures);
    total_events = sum (fun s -> s.events_fired);
    total_downgrades = sum (fun s -> s.downgrades);
    total_upgrades = sum (fun s -> s.upgrades);
    concurrent_calls = sum (fun s -> s.final_concurrent);
    peak_concurrent = sum (fun s -> s.peak_concurrent);
    total_batch_hits = sum (fun s -> s.batch_hits);
    total_memo_hits = 0;
    audit_violations = sum (fun s -> s.audit_violations);
    outcome_hash =
      Array.fold_left (fun h s -> fnv h s.shard_hash) 0 shards_;
  }
