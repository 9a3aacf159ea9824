module Events = Rcbr_queue.Events
module Rng = Rcbr_util.Rng
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts

type config = { capacity : float; calls : int; arrival_window : float }

(* The contest every run shares; only [config] varies (see the .mli). *)
let rows = 4
let cols = 4
let levels = [| 64_000.; 256_000.; 1_024_000. |]
let mean_hold = 5.
let pieces_per_call = 6
let admit_margin = 0.9
let target = 1e-6
let tiers = 4
let mts_scales = 3
let mts_quantum = 4.
let seed = 42

let default () = { capacity = 6_000_000.; calls = 384; arrival_window = 30. }

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
   (duration, rate) pieces it will demand.  The workload is drawn from
   the config's own seed, so every service model replays it verbatim
   and the comparison differs only in what the model grants. *)
type call = { at : float; route : int; pieces : (float * float) array }

let mean_level =
  Array.fold_left ( +. ) 0. levels /. float_of_int (Array.length levels)

let peak_level = Array.fold_left Float.max 0. levels

let workload c ~n_routes =
  let rng = Rng.create seed in
  Array.init c.calls (fun _ ->
      let at = Rng.float_range rng 0. c.arrival_window in
      let route = Rng.int rng n_routes in
      let pieces =
        Array.init pieces_per_call (fun _ ->
            let duration = Rng.exponential rng (1. /. mean_hold) in
            let rate = levels.(Rng.int rng (Array.length levels)) in
            (duration, rate))
      in
      { at; route; pieces })

let validate c =
  assert (c.capacity > 0. && c.calls >= 1 && c.arrival_window > 0.)

(* The three contenders, ladders derived from the workload's own rate
   levels (no trellis schedule here; megacall does the same). *)
let models () =
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let lo = sorted.(0) and hi = sorted.(Array.length sorted - 1) in
  let tiers =
    Array.init tiers (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (tiers - 1)))
  in
  [|
    Service_model.Renegotiate;
    Service_model.Downgrade { tiers };
    Service_model.Mts_profile
      (Mts.ladder ~scales:mts_scales ~quantum:mts_quantum ~mean:mean_level
         ~peak:hi);
  |]

let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 <= 0. then 0. else s *. s /. (float_of_int n *. s2)
  end

let run_model c model =
  validate c;
  Service_model.validate model;
  let topo = Topology.grid ~rows ~cols ~capacity:c.capacity in
  let calls = workload c ~n_routes:(Topology.n_routes topo) in
  let links = Link.of_topology topo in
  let descriptor =
    let sorted =
      List.sort_uniq Float.compare (Array.to_list levels) |> Array.of_list
    in
    let n = Array.length sorted in
    Descriptor.create ~levels:sorted
      ~fractions:(Array.make n (1. /. float_of_int n))
  in
  let ctrl =
    Controller.perfect ~descriptor
      ~capacity:(admit_margin *. mean_level *. float_of_int c.calls)
      ~target
  in
  let engine = Events.create () in
  let k = Call_step.counts () and departures = ref 0 in
  let granted_bits = Array.make c.calls 0. in
  let demanded_bits = Array.make c.calls 0. in
  let last = Array.make c.calls 0. in
  let store = Store.create () in
  let util = Call_step.utilization links in
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
  let upgrade h ~now ~rate =
    accrue (Store.id store h) h ~now;
    Call_step.upgrade ctrl ~links store h ~now ~rate k
  in
  let depart h i engine =
    let now = Events.now engine in
    Call_step.advance util ~now;
    accrue i h ~now;
    Store.settle ~links store h ~rate:0.;
    Store.release store h;
    Controller.on_depart ctrl ~now ~call:h;
    incr departures;
    Store.drain_upgrades model ~links store ~now upgrade
  in
  let change h i rate engine =
    let now = Events.now engine in
    Call_step.advance util ~now;
    accrue i h ~now;
    let d = Call_step.change model ~links store h ~now ~demanded:rate k in
    Controller.on_renegotiate ctrl ~now ~call:h
      ~rate:(Service_model.granted_rate d ~demanded:rate)
  in
  let arrival i engine =
    let now = Events.now engine in
    Call_step.advance util ~now;
    if not (Controller.admit ctrl ~now) then k.blocked <- k.blocked + 1
    else begin
      let cw = calls.(i) in
      let h =
        Store.acquire store ~id:i ~route:topo.Topology.routes.(cw.route)
          ~transit:true
      in
      if
        Call_step.arrive ctrl model ~links store h ~now
          ~demanded:(snd cw.pieces.(0)) k
      then begin
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
      end
    end
  in
  Array.iteri
    (fun i cw -> Events.schedule engine ~at:cw.at (arrival i))
    calls;
  Events.run engine;
  Call_step.advance util ~now:(Events.now engine);
  let audit_violations = Store.audit ~links store in
  let mean_utilization =
    if Events.now engine > 0. then Call_step.integral util /. Events.now engine
    else 0.
  in
  let xs =
    Array.init c.calls (fun i ->
        if demanded_bits.(i) > 0. then granted_bits.(i) /. demanded_bits.(i)
        else 0.)
  in
  let decision_hash = (Controller.stats ctrl).Controller.decision_hash in
  let outcome_hash =
    let h =
      List.fold_left Call_step.fnv 0
        [
          c.calls; k.admitted; k.blocked; k.attempts; k.denied; k.downgrades;
          k.upgrades; !departures; decision_hash; audit_violations;
        ]
    in
    Array.fold_left
      (fun h l -> Call_step.fnv_float h l.Link.acct.demand)
      h links
  in
  {
    model = Service_model.name model;
    arrivals = c.calls;
    admitted = k.admitted;
    blocked = k.blocked;
    reneg_attempts = k.attempts;
    reneg_denied = k.denied;
    downgrades = k.downgrades;
    upgrades = k.upgrades;
    departures = !departures;
    blocking_probability = float_of_int k.blocked /. float_of_int c.calls;
    downgrade_probability =
      (if k.admitted = 0 then 0.
       else
         float_of_int k.downgrades /. float_of_int (k.admitted + k.attempts));
    mean_utilization;
    smg = mean_utilization *. peak_level /. mean_level;
    jain_fairness = jain xs;
    decision_hash;
    outcome_hash;
    audit_violations;
  }

let run ?pool c =
  validate c;
  { models = Rcbr_util.Pool.map_array ?pool (run_model c) (models ()) }
