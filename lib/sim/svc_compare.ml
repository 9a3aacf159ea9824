module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts

type config = {
  rows : int;
  cols : int;
  capacity : float;
  calls : int;
  levels : float array;
  mean_hold : float;
  pieces_per_call : int;
  arrival_window : float;
  admit_margin : float;
  target : float;
  tiers : int;
  mts_scales : int;
  mts_quantum : float;
  seed : int;
}

let default () =
  {
    rows = 4;
    cols = 4;
    capacity = 6_000_000.;
    calls = 384;
    levels = [| 64_000.; 256_000.; 1_024_000. |];
    mean_hold = 5.;
    pieces_per_call = 6;
    arrival_window = 30.;
    admit_margin = 0.9;
    target = 1e-6;
    tiers = 4;
    mts_scales = 3;
    mts_quantum = 4.;
    seed = 42;
  }

type model_metrics = {
  model : string;
  arrivals : int;
  admitted : int;
  blocked : int;
  reneg_attempts : int;
  reneg_denied : int;
  downgrades : int;
  upgrades : int;
  departures : int;
  blocking_probability : float;
  downgrade_probability : float;
  mean_utilization : float;
  smg : float;
  jain_fairness : float;
  decision_hash : int;
  outcome_hash : int;
  audit_violations : int;
}

type metrics = { models : model_metrics array }

(* One pre-generated call: arrival time, route index, and the
   (duration, rate) pieces it will demand.  The workload is drawn once
   and replayed verbatim by every service model, so the comparison
   differs only in what the model grants. *)
type call = { at : float; route : int; pieces : (float * float) array }

let mean_level c =
  Array.fold_left ( +. ) 0. c.levels /. float_of_int (Array.length c.levels)

let peak_level c = Array.fold_left Float.max 0. c.levels

let workload c ~n_routes =
  let rng = Rng.create c.seed in
  Array.init c.calls (fun _ ->
      let at = Rng.float_range rng 0. c.arrival_window in
      let route = Rng.int rng n_routes in
      let pieces =
        Array.init c.pieces_per_call (fun _ ->
            let duration = Rng.exponential rng (1. /. c.mean_hold) in
            let rate = c.levels.(Rng.int rng (Array.length c.levels)) in
            (duration, rate))
      in
      { at; route; pieces })

let validate c =
  assert (c.rows >= 2 && c.cols >= 2);
  assert (c.capacity > 0.);
  assert (c.calls >= 1 && c.pieces_per_call >= 1);
  assert (Array.length c.levels >= 2);
  Array.iter (fun r -> assert (r > 0.)) c.levels;
  assert (c.mean_hold > 0. && c.arrival_window > 0.);
  assert (c.admit_margin > 0. && c.target > 0. && c.target < 1.);
  assert (c.tiers >= 2 && c.mts_scales >= 1 && c.mts_quantum > 0.)

(* The three contenders, ladders derived from the workload's own rate
   levels (no trellis schedule here; megacall does the same). *)
let models c =
  let sorted = Array.copy c.levels in
  Array.sort Float.compare sorted;
  let lo = sorted.(0) and hi = sorted.(Array.length sorted - 1) in
  let tiers =
    Array.init c.tiers (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (c.tiers - 1)))
  in
  [|
    Service_model.Renegotiate;
    Service_model.Downgrade { tiers };
    Service_model.Mts_profile
      (Mts.ladder ~scales:c.mts_scales ~quantum:c.mts_quantum
         ~mean:(mean_level c) ~peak:hi);
  |]

let fnv h v = (h lxor v) * 0x100000001b3 land max_int
let fnv_float h x = fnv h (Int64.to_int (Int64.bits_of_float x) land max_int)

let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 <= 0. then 0. else s *. s /. (float_of_int n *. s2)
  end

let run_model c topo (calls : call array) model =
  Service_model.validate model;
  let links = Link.of_topology topo in
  let n_links = Topology.n_links topo in
  let descriptor =
    let sorted =
      List.sort_uniq Float.compare (Array.to_list c.levels) |> Array.of_list
    in
    let n = Array.length sorted in
    Descriptor.create ~levels:sorted
      ~fractions:(Array.make n (1. /. float_of_int n))
  in
  let ctrl =
    Controller.perfect ~descriptor
      ~capacity:(c.admit_margin *. mean_level c *. float_of_int c.calls)
      ~target:c.target
  in
  Controller.set_service ctrl model;
  let engine = Events.create () in
  let admitted = ref 0 and blocked = ref 0 in
  let reneg_attempts = ref 0 and reneg_denied = ref 0 in
  let downgrades = ref 0 and upgrades = ref 0 and departures = ref 0 in
  let granted_bits = Array.make c.calls 0. in
  let demanded_bits = Array.make c.calls 0. in
  let last = Array.make c.calls 0. in
  let store = Store.create () in
  let util_integral = ref 0. and util_last = ref 0. in
  let advance now =
    let dt = now -. !util_last in
    if dt > 0. then begin
      let acc = ref 0. in
      Array.iter
        (fun l ->
          acc := !acc +. Float.min 1. (l.Link.demand /. l.Link.capacity))
        links;
      util_integral := !util_integral +. (!acc /. float_of_int n_links *. dt);
      util_last := now
    end
  in
  (* Per-flow fairness accounting: integrate granted (applied) and
     demanded bits between rate-change points. *)
  let accrue i h ~now =
    let dt = now -. last.(i) in
    if dt > 0. then begin
      let applied = Store.applied store h in
      granted_bits.(i) <- granted_bits.(i) +. (applied *. dt);
      demanded_bits.(i) <-
        demanded_bits.(i) +. (Float.max applied (Store.demanded store h) *. dt);
      last.(i) <- now
    end
  in
  let depart h i engine =
    let now = Events.now engine in
    advance now;
    accrue i h ~now;
    Store.settle ~links store h ~rate:0.;
    Store.release store h;
    Controller.on_depart ctrl ~now ~call:i;
    incr departures;
    Store.upgrade_scan model ~links store ~now (fun h r ->
        let i = Store.id store h in
        accrue i h ~now;
        Store.settle ~links store h ~rate:r;
        Controller.on_renegotiate ctrl ~now ~call:i ~rate:r;
        incr upgrades)
  in
  let change h i rate engine =
    let now = Events.now engine in
    advance now;
    accrue i h ~now;
    let increase = rate > Store.applied store h in
    if increase then incr reneg_attempts;
    let decision = Store.decide model ~links store h ~now ~demanded:rate in
    let granted = Service_model.granted_rate decision ~demanded:rate in
    (* Renegotiation failure (the paper's headline price): an increase
       the route cannot absorb.  [Downgrade] converts the failure into
       a ladder floor; the other models settle it anyway and the
       overload shows in the utilization cap. *)
    (if Service_model.downgraded decision then begin
       incr downgrades;
       match decision with
       | Service_model.Settle_floor _ -> if increase then incr reneg_denied
       | _ -> ()
     end
     else if increase && not (Store.fits ~links store h ~rate:granted ~now)
     then incr reneg_denied);
    Store.settle ~links store h ~rate:granted;
    Controller.on_renegotiate ctrl ~now ~call:i ~rate:granted
  in
  let arrival i engine =
    let now = Events.now engine in
    advance now;
    let cw = calls.(i) in
    let h =
      Store.acquire store ~id:i ~route:topo.Topology.routes.(cw.route)
        ~transit:true
    in
    let rate0 = snd cw.pieces.(0) in
    match
      Controller.decide ctrl ~now ~demanded:rate0 ~fits:(fun r ->
          Store.fits ~links store h ~rate:r ~now)
    with
    | Controller.Blocked ->
        Store.release store h;
        incr blocked
    | Controller.Admit { granted; downgraded; _ } ->
        incr admitted;
        Store.set_demanded store h rate0;
        if downgraded then incr downgrades;
        Store.settle ~links store h ~rate:granted;
        Controller.on_admit ctrl ~now ~call:i ~rate:granted;
        last.(i) <- now;
        let t = ref now in
        Array.iteri
          (fun idx (duration, _) ->
            t := !t +. duration;
            if idx < Array.length cw.pieces - 1 then
              let rate = snd cw.pieces.(idx + 1) in
              Events.schedule engine ~at:!t (change h i rate)
            else Events.schedule engine ~at:!t (depart h i))
          cw.pieces
  in
  Array.iteri
    (fun i cw -> Events.schedule engine ~at:cw.at (arrival i))
    calls;
  Events.run engine;
  advance (Events.now engine);
  let audit_violations = Store.audit ~links store in
  let mean_utilization =
    if Events.now engine > 0. then !util_integral /. Events.now engine else 0.
  in
  let xs =
    Array.init c.calls (fun i ->
        if demanded_bits.(i) > 0. then granted_bits.(i) /. demanded_bits.(i)
        else 0.)
  in
  let decision_hash = (Controller.stats ctrl).Controller.decision_hash in
  let outcome_hash =
    let h =
      List.fold_left fnv 0
        [
          c.calls; !admitted; !blocked; !reneg_attempts; !reneg_denied;
          !downgrades; !upgrades; !departures; decision_hash; audit_violations;
        ]
    in
    Array.fold_left (fun h l -> fnv_float h l.Link.demand) h links
  in
  {
    model = Service_model.name model;
    arrivals = c.calls;
    admitted = !admitted;
    blocked = !blocked;
    reneg_attempts = !reneg_attempts;
    reneg_denied = !reneg_denied;
    downgrades = !downgrades;
    upgrades = !upgrades;
    departures = !departures;
    blocking_probability = float_of_int !blocked /. float_of_int c.calls;
    downgrade_probability =
      (if !admitted = 0 then 0.
       else float_of_int !downgrades /. float_of_int (!admitted + !reneg_attempts));
    mean_utilization;
    smg = mean_utilization *. peak_level c /. mean_level c;
    jain_fairness = jain xs;
    decision_hash;
    outcome_hash;
    audit_violations;
  }

let run ?pool c =
  validate c;
  let topo = Topology.grid ~rows:c.rows ~cols:c.cols ~capacity:c.capacity in
  let calls = workload c ~n_routes:(Topology.n_routes topo) in
  { models = Rcbr_util.Pool.map_array ?pool (run_model c topo calls) (models c) }
