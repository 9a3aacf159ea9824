(* Unit and property tests for Rcbr_policy: the tier-ladder walk, the
   MTS token-bucket policer, CLI spec parsing, the store-level
   downgrade-upgrade machinery, and the service-model plumbing through
   the admission controller and the engines (Controller.place under
   Renegotiate must leave the decision sequence identical to admit's;
   Megacall under Downgrade must stay pool-size independent). *)

module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Megacall = Rcbr_sim.Megacall
module Svc_compare = Rcbr_sim.Svc_compare
module Mbac = Rcbr_sim.Mbac
module Multihop = Rcbr_sim.Multihop
module Session = Rcbr_net.Session
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal
module Pool = Rcbr_util.Pool

let checkf = Alcotest.(check (float 1e-9))
let check_exact = Alcotest.(check (float 0.))

(* --- decide_tiers / upgrade ----------------------------------------- *)

let tiers = [| 1_000.; 4_000.; 8_000. |]

let test_decide_tiers () =
  let fits_below cap r = r <= cap in
  (match Service_model.decide_tiers ~tiers ~demanded:6_000. ~fits:(fits_below 10_000.) with
  | Service_model.Grant -> ()
  | _ -> Alcotest.fail "fitting demand must be granted as-is");
  (match Service_model.decide_tiers ~tiers ~demanded:6_000. ~fits:(fits_below 5_000.) with
  | Service_model.Downgrade_to { granted; tier } ->
      checkf "highest fitting tier" 4_000. granted;
      Alcotest.(check int) "tier index" 1 tier
  | _ -> Alcotest.fail "expected Downgrade_to");
  (* Tiers at or above the demanded rate are never granted: a 4k demand
     must not be upgraded to 8k by the downgrade walk even if 8k fits. *)
  (match
     Service_model.decide_tiers ~tiers ~demanded:4_000.
       ~fits:(fun r -> not (Float.equal r 4_000.))
   with
  | Service_model.Downgrade_to { granted; _ } -> checkf "below demand" 1_000. granted
  | _ -> Alcotest.fail "expected Downgrade_to at the floor");
  match Service_model.decide_tiers ~tiers ~demanded:6_000. ~fits:(fun _ -> false) with
  | Service_model.Settle_floor { granted; tier } ->
      checkf "floor" 1_000. granted;
      Alcotest.(check int) "floor index" 0 tier
  | _ -> Alcotest.fail "expected Settle_floor"

let test_upgrade () =
  Alcotest.(check bool)
    "satisfied call never upgrades" true
    (Service_model.upgrade ~tiers ~demanded:4_000. ~applied:4_000.
       ~fits:(fun _ -> true)
    = None);
  (match Service_model.upgrade ~tiers ~demanded:6_000. ~applied:1_000. ~fits:(fun _ -> true) with
  | Some r -> checkf "full restore when everything fits" 6_000. r
  | None -> Alcotest.fail "expected full upgrade");
  (match Service_model.upgrade ~tiers ~demanded:9_000. ~applied:1_000. ~fits:(fun r -> r <= 4_000.) with
  | Some r -> checkf "partial climb to the fitting tier" 4_000. r
  | None -> Alcotest.fail "expected partial upgrade");
  Alcotest.(check bool)
    "no fitting tier above applied" true
    (Service_model.upgrade ~tiers ~demanded:9_000. ~applied:4_000.
       ~fits:(fun r -> r <= 4_000.)
    = None)

(* --- the denial rule -------------------------------------------------- *)

(* Every decision constructor x increase x route fit.  An increase is
   denied when settled at the floor, or granted in full where the route
   cannot fit it; downgrades and policer clips are not denials, and only
   a full grant of an increase asks for the route probe. *)
let test_denial_table () =
  let decisions =
    [
      ("grant", Service_model.Grant);
      ("downgrade_to", Service_model.Downgrade_to { granted = 1_000.; tier = 0 });
      ("police_to", Service_model.Police_to { granted = 1_000. });
      ("settle_floor", Service_model.Settle_floor { granted = 1_000.; tier = 0 });
    ]
  in
  List.iter
    (fun (name, d) ->
      List.iter
        (fun increase ->
          List.iter
            (fun fits ->
              let probed = ref false in
              let denied =
                match Service_model.denial d ~increase with
                | Service_model.Not_denied -> false
                | Service_model.Denied -> true
                | Service_model.Denied_unless_fits ->
                    probed := true;
                    not fits
              in
              let is_grant, is_floor =
                match d with
                | Service_model.Grant -> (true, false)
                | Service_model.Settle_floor _ -> (false, true)
                | Service_model.Downgrade_to _ | Service_model.Police_to _ ->
                    (false, false)
              in
              let tag =
                Printf.sprintf "%s increase=%b fits=%b" name increase fits
              in
              Alcotest.(check bool) (tag ^ " denied")
                (increase && (is_floor || (is_grant && not fits)))
                denied;
              Alcotest.(check bool) (tag ^ " probed") (increase && is_grant)
                !probed)
            [ true; false ])
        [ true; false ])
    decisions

(* --- of_spec --------------------------------------------------------- *)

let test_of_spec () =
  let default_tiers n =
    match n with None -> tiers | Some k -> Array.init k (fun i -> float_of_int (i + 1))
  in
  let default_mts () = Mts.ladder ~scales:2 ~quantum:1. ~mean:10. ~peak:20. in
  let parse s = Service_model.of_spec s ~default_tiers ~default_mts in
  (match parse "renegotiate" with
  | Ok Service_model.Renegotiate -> ()
  | _ -> Alcotest.fail "renegotiate");
  (match parse "downgrade" with
  | Ok (Service_model.Downgrade { tiers = t }) ->
      Alcotest.(check int) "default ladder" 3 (Array.length t)
  | _ -> Alcotest.fail "downgrade");
  (match parse "downgrade:5" with
  | Ok (Service_model.Downgrade { tiers = t }) ->
      Alcotest.(check int) "counted ladder" 5 (Array.length t)
  | _ -> Alcotest.fail "downgrade:5");
  (match parse "downgrade:300,100,200" with
  | Ok (Service_model.Downgrade { tiers = t }) ->
      Alcotest.(check (array (float 0.))) "explicit ladder, sorted"
        [| 100.; 200.; 300. |] t
  | _ -> Alcotest.fail "downgrade:list");
  (match parse "mts" with
  | Ok (Service_model.Mts_profile p) ->
      Alcotest.(check int) "profile scales" 2 (Array.length p.Mts.rates)
  | _ -> Alcotest.fail "mts");
  let is_error s = match parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown model" true (is_error "settle");
  Alcotest.(check bool) "bad tier list" true (is_error "downgrade:a,b");
  Alcotest.(check bool) "nonpositive tier" true (is_error "downgrade:0,100")

(* --- MTS policer ----------------------------------------------------- *)

let test_mts_police () =
  let p = { Mts.rates = [| 10. |]; depths = [| 20. |]; quantum = 2. } in
  Mts.validate p;
  let b = Mts.attach p in
  (* Full bucket: burst credit amortized over the quantum on top of the
     token rate. *)
  checkf "initial grant" 20. (Mts.police p b ~elapsed:0. ~applied:0. ~demanded:100.);
  (* Two seconds at rate 20 spend 40 tokens against 20 stored + 20
     accrued: the bucket empties and the grant drops to the token rate. *)
  checkf "after burst" 10. (Mts.police p b ~elapsed:2. ~applied:20. ~demanded:100.);
  (* A conformant call (applied = token rate) is never policed below
     the sustained rate. *)
  checkf "sustained" 10. (Mts.police p b ~elapsed:5. ~applied:10. ~demanded:10.);
  (* Idling rebuilds the credit up to the depth. *)
  checkf "recovered" 20. (Mts.police p b ~elapsed:10. ~applied:0. ~demanded:100.)

let test_mts_ladder () =
  let p = Mts.ladder ~scales:3 ~quantum:1. ~mean:10. ~peak:40. in
  Alcotest.(check int) "scales" 3 (Array.length p.Mts.rates);
  checkf "scale 0 polices the peak" 40. p.Mts.rates.(0);
  checkf "last scale polices the mean" 10. p.Mts.rates.(2);
  Alcotest.(check bool) "depths grow with the time scale" true
    (p.Mts.depths.(2) > p.Mts.depths.(0))

(* A ladder so generous it never clips: every model-specific path runs
   and must act exactly as Renegotiate. *)
let never_clips =
  Service_model.Mts_profile (Mts.ladder ~scales:1 ~quantum:1. ~mean:1e12 ~peak:1e12)

(* --- store-level downgrade semantics ---------------------------------- *)

let single_link ~capacity =
  let topo = Topology.single_link ~capacity in
  Link.of_topology topo

let model = Service_model.Downgrade { tiers }

let call store ~id = Store.acquire store ~id ~route:[| 0 |] ~transit:false

let test_settle_at_floor_audits_clean () =
  let links = single_link ~capacity:10_000. in
  let store = Store.create () in
  let a = call store ~id:0 in
  Store.settle ~links store a ~rate:9_500.;
  let b = call store ~id:1 in
  (* Nothing fits next to the 9.5k call — the established call settles
     at the floor anyway (settle semantics) and conservation still
     holds: link demand = 9.5k + 1k over a 10k link. *)
  (match Store.decide model ~links store b ~now:0. ~demanded:6_000. with
  | Service_model.Settle_floor { granted; tier } ->
      checkf "floor grant" 1_000. granted;
      Alcotest.(check int) "floor tier" 0 tier;
      Store.settle ~links store b ~rate:granted
  | _ -> Alcotest.fail "expected Settle_floor");
  checkf "link demand" 10_500. links.(0).Link.acct.demand;
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store);
  checkf "demand tracked" 6_000. (Store.demanded store b)

(* A drain that records each restoration, as (call id, granted rate),
   and settles it, as every engine's callback does. *)
let drain links store restored =
  Store.drain_upgrades model ~links store ~now:1. (fun h ~now:_ ~rate ->
      restored := !restored @ [ (Store.id store h, rate) ];
      Store.settle ~links store h ~rate)

let check_restored = Alcotest.(check (list (pair int (float 0.))))

let depart links store h =
  Store.settle ~links store h ~rate:0.;
  Store.release store h

let test_upgrade_races_departure () =
  let links = single_link ~capacity:10_000. in
  let store = Store.create () in
  let a = call store ~id:0 in
  Store.settle ~links store a ~rate:8_000.;
  let b = call store ~id:1 in
  (match Store.decide model ~links store b ~now:0. ~demanded:8_000. with
  | Service_model.Downgrade_to { granted; _ } ->
      checkf "downgraded next to the 8k call" 1_000. granted;
      Store.settle ~links store b ~rate:granted
  | _ -> Alcotest.fail "expected Downgrade_to");
  (* Same tick: the drain runs before the departure settles — the link
     still carries the departing call, so nothing fits ... *)
  let restored = ref [] in
  drain links store restored;
  check_restored "upgrade loses the race" [] !restored;
  (* ... and after the departure settles, the queued call gets its full
     demanded rate back.  Drivers drain after the departure bookkeeping
     for exactly this reason. *)
  depart links store a;
  drain links store restored;
  check_restored "full restore after departure" [ (1, 8_000.) ] !restored;
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store)

(* One queue, oldest downgrade first.  Recycling puts handle order
   (d < b < c) and call-id order (b < c < d) apart from the downgrade
   order (c, d, b), and leaves the departed call s a stale entry under
   the handle d took over. *)
let test_upgrade_queue_order () =
  let links = single_link ~capacity:14_000. in
  let store = Store.create () in
  let s = call store ~id:0 in
  let b = call store ~id:1 in
  let c = call store ~id:2 in
  let x = call store ~id:3 in
  let z = call store ~id:4 in
  List.iter
    (fun (h, rate) -> Store.settle ~links store h ~rate)
    [ (b, 1_000.); (c, 1_000.); (x, 8_000.); (z, 3_000.) ];
  (* The link is full after each downgrade, so each lands on the floor. *)
  let downgrade h demanded =
    match Store.decide model ~links store h ~now:0. ~demanded with
    | Service_model.Downgrade_to { granted; _ } ->
        checkf "floor" 1_000. granted;
        Store.settle ~links store h ~rate:granted
    | _ -> Alcotest.fail "expected Downgrade_to"
  in
  downgrade s 8_000.;
  depart links store s;
  let d = call store ~id:5 in
  Alcotest.(check int) "d recycles s's handle" s d;
  Store.settle ~links store d ~rate:1_000.;
  downgrade c 8_000.;
  downgrade d 8_000.;
  downgrade b 2_000.;
  Alcotest.(check bool) "handle order d < b < c" true (d < b && b < c);
  let restored = ref [] in
  (* x leaves, 8k of room.  s's stale entry goes (a drain that took it
     for d would restore d first); c is restored in full; d fits no
     higher tier and blocks b, which would fit. *)
  depart links store x;
  drain links store restored;
  check_restored "c first, b waits" [ (2, 8_000.) ] !restored;
  checkf "b still at the floor" 1_000. (Store.applied store b);
  (* z leaves, room for d's next tier only: d climbs part way and keeps
     the head, so b still waits. *)
  depart links store z;
  drain links store restored;
  check_restored "d part way" [ (2, 8_000.); (5, 4_000.) ] !restored;
  checkf "b waits behind a partly restored head" 1_000. (Store.applied store b);
  (* c leaves: d climbs the rest of the way, then b. *)
  depart links store c;
  drain links store restored;
  check_restored "downgrade order"
    [ (2, 8_000.); (5, 4_000.); (5, 8_000.); (1, 2_000.) ]
    !restored;
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store)

(* MTS polices a call from the moment it is placed: the first change
   settles the piece played since the arrival against the ladder.  One
   scale at 1 kb/s with 4 kb of credit: 2 s at 3 kb/s overdraw it, so
   the change is clipped to the token rate, where a ladder attached at
   the change would have granted the 3 kb/s in full. *)
let test_mts_polices_from_placement () =
  let p = { Mts.rates = [| 1_000. |]; depths = [| 4_000. |]; quantum = 1. } in
  let mts = Service_model.Mts_profile p in
  let links = single_link ~capacity:1e9 in
  let store = Store.create () in
  let ctrl = Controller.always_admit () in
  let k = Rcbr_sim.Call_step.counts () in
  let h = call store ~id:0 in
  Alcotest.(check bool) "placed" true
    (Rcbr_sim.Call_step.arrive ctrl mts ~links store h ~now:0. ~demanded:3_000. k);
  (match Rcbr_sim.Call_step.change mts ~links store h ~now:2. ~demanded:3_000. k with
  | Service_model.Police_to { granted } -> checkf "clipped to the token rate" 1_000. granted
  | _ -> Alcotest.fail "expected Police_to");
  checkf "settled" 1_000. (Store.applied store h);
  Alcotest.(check int) "one downgrade" 1 k.Rcbr_sim.Call_step.downgrades;
  (* A call no engine placed has no ladder, and [decide] says so. *)
  let stray = call store ~id:1 in
  match Store.decide mts ~links store stray ~now:2. ~demanded:1_000. with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "decide policed a call with no ladder"

(* --- Controller.place ≡ admit under Renegotiate ---------------------- *)

(* The engines run [admit] and then [place]; under every model but
   Downgrade [place] is a full grant that never probes [fits], so the
   decision sequence is exactly [admit]'s. *)
let test_controller_place_renegotiate_identity () =
  let descriptor =
    Descriptor.create ~levels:[| 1_000.; 2_000. |] ~fractions:[| 0.5; 0.5 |]
  in
  let mk () = Controller.perfect ~descriptor ~capacity:12_000. ~target:1e-3 in
  let a = mk () and b = mk () in
  let never_probed _ = Alcotest.fail "place probed fits" in
  for i = 0 to 39 do
    let now = float_of_int i in
    let adm = Controller.admit a ~now in
    Alcotest.(check bool) "gates agree" adm (Controller.admit b ~now);
    if adm then begin
      List.iter
        (fun model ->
          match Controller.place b model ~demanded:2_000. ~fits:never_probed with
          | Service_model.Grant -> ()
          | _ -> Alcotest.fail "full grant expected")
        [ Service_model.Renegotiate; never_clips ];
      Controller.on_admit a ~now ~call:i ~rate:2_000.;
      Controller.on_admit b ~now ~call:i ~rate:2_000.
    end
  done;
  Alcotest.(check int) "identical decision hashes"
    (Controller.stats a).Controller.decision_hash
    (Controller.stats b).Controller.decision_hash;
  (* Downgrade walks the ladder; an arrival that fits no tier is blocked
     and the capacity rejection lands in the hash as one more deny. *)
  let before = Controller.stats b in
  (match Controller.place b model ~demanded:6_000. ~fits:(fun r -> r <= 4_000.) with
  | Service_model.Downgrade_to { granted; _ } -> checkf "fitting tier" 4_000. granted
  | _ -> Alcotest.fail "expected Downgrade_to");
  (match Controller.place b model ~demanded:6_000. ~fits:(fun _ -> false) with
  | Service_model.Settle_floor _ -> ()
  | _ -> Alcotest.fail "expected Settle_floor");
  let after = Controller.stats b in
  Alcotest.(check int) "one extra deny" (before.Controller.decisions + 1)
    after.Controller.decisions;
  Alcotest.(check int) "no extra admit" before.Controller.admits
    after.Controller.admits

(* --- property: Downgrade never oversubscribes the link --------------- *)

(* Arrivals that fit no tier are Blocked (no settle-floor right), and
   every admitted call holds at least the floor, so established-call
   Settle_floor settles can only lower the link demand.  Hence: as long
   as demands stay at or above the floor, the total granted rate never
   exceeds capacity — under any interleaving of arrivals, changes,
   departures and upgrade drains. *)
let prop_downgrade_capacity =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 12)
        (list_size (int_range 1 60) (pair (int_range 0 2) (int_range 0 999)))
        (int_range 0 5))
  in
  QCheck.Test.make ~name:"downgrade total grant <= capacity" ~count:300
    (QCheck.make gen) (fun (cap_mult, ops, _salt) ->
      let capacity = float_of_int cap_mult *. 1_000. in
      let links = single_link ~capacity in
      let store = Store.create () and next_id = ref 0 and top = ref 0 in
      let check_cap () =
        if links.(0).Link.acct.demand > capacity +. 1e-6 then
          QCheck.Test.fail_reportf "demand %.1f > capacity %.1f"
            links.(0).Link.acct.demand capacity
      in
      let pick v =
        (* Live handles, highest first; [!top] is past every handle
           acquired so far. *)
        let live =
          List.filter (Store.is_live store)
            (List.init !top (fun i -> !top - 1 - i))
        in
        List.nth live (v mod List.length live)
      in
      List.iter
        (fun (op, v) ->
          (* Demands stay at or above the floor tier. *)
          let demand = float_of_int (1 + (v mod 9)) *. 1_000. in
          (match op with
          | 0 -> (
              let h = call store ~id:!next_id in
              incr next_id;
              top := max !top (h + 1);
              match Store.decide model ~links store h ~now:0. ~demanded:demand with
              | Service_model.Settle_floor _ ->
                  Store.release store h (* blocked arrival *)
              | d ->
                  Store.settle ~links store h
                    ~rate:(Service_model.granted_rate d ~demanded:demand))
          | 1 when Store.live_count store > 0 ->
              let h = pick v in
              let d = Store.decide model ~links store h ~now:0. ~demanded:demand in
              Store.settle ~links store h
                ~rate:(Service_model.granted_rate d ~demanded:demand)
          | 2 when Store.live_count store > 0 ->
              let h = pick v in
              Store.settle ~links store h ~rate:0.;
              Store.release store h;
              Store.drain_upgrades model ~links store ~now:0.
                (fun h ~now:_ ~rate -> Store.settle ~links store h ~rate)
          | _ -> ());
          check_cap ())
        ops;
      Alcotest.(check int) "audit clean" 0 (Store.audit ~links store);
      true)

(* --- engine plumbing ------------------------------------------------- *)

let test_megacall_downgrade_pool_identity () =
  let cfg = Megacall.default ~concurrent:2048 () in
  let cfg =
    {
      cfg with
      Megacall.shards = 4;
      calls_per_shard = 512;
      horizon = 6.;
      service =
        Service_model.Downgrade { tiers = [| 64_000.; 256_000.; 1_024_000. |] };
    }
  in
  let seq = Megacall.run cfg in
  let par = Pool.with_pool ~jobs:3 (fun pool -> Megacall.run ~pool cfg) in
  Alcotest.(check int) "outcome hash -j independent" seq.Megacall.outcome_hash
    par.Megacall.outcome_hash;
  Alcotest.(check int) "audit clean" 0 seq.Megacall.audit_violations;
  Alcotest.(check bool) "ladder exercised" true (seq.Megacall.total_downgrades > 0)

let test_svc_compare_deterministic () =
  let cfg =
    { Svc_compare.calls = 96; capacity = 2_000_000.; arrival_window = 10. }
  in
  let seq = Svc_compare.run cfg in
  let par = Pool.with_pool ~jobs:3 (fun pool -> Svc_compare.run ~pool cfg) in
  Alcotest.(check int) "three models" 3 (Array.length seq.Svc_compare.models);
  Array.iteri
    (fun i (r : Svc_compare.model_metrics) ->
      let p = par.Svc_compare.models.(i) in
      Alcotest.(check int)
        (r.Svc_compare.model ^ " outcome hash -j independent")
        r.Svc_compare.outcome_hash p.Svc_compare.outcome_hash;
      Alcotest.(check int)
        (r.Svc_compare.model ^ " audit clean")
        0 r.Svc_compare.audit_violations;
      Alcotest.(check bool)
        (r.Svc_compare.model ^ " jain in [0,1]")
        true
        (r.Svc_compare.jain_fairness >= 0. && r.Svc_compare.jain_fairness <= 1.))
    seq.Svc_compare.models;
  (* Downgrade pin: the store's queue restores calls in the order they
     were downgraded; an ascending-call-id scan lands another hash. *)
  Alcotest.(check int) "downgrade outcome pinned" 738013726371940941
    seq.Svc_compare.models.(1).Svc_compare.outcome_hash;
  (* Renegotiate grants every admitted demand in full, so its fairness
     over admitted calls is exact: J = admitted / arrivals. *)
  let r = seq.Svc_compare.models.(0) in
  Alcotest.(check (float 1e-9)) "renegotiate jain = admitted/arrivals"
    (float_of_int r.Svc_compare.admitted /. float_of_int r.Svc_compare.arrivals)
    r.Svc_compare.jain_fairness

(* --- differential: a model that never acts is Renegotiate ------------ *)

(* Every engine runs one arrival path and one rate-change path for all
   models, in the seed's draw order, and counts denials by one rule.  So
   a model that never acts — [never_clips], or [Downgrade] where every
   change fits — must reproduce the Renegotiate run counter for counter
   and decision for decision. *)

let diff_schedule =
  Schedule.create ~fps:24. ~n_slots:480
    [
      { Schedule.start_slot = 0; rate = 300_000. };
      { Schedule.start_slot = 120; rate = 600_000. };
      { Schedule.start_slot = 240; rate = 200_000. };
      { Schedule.start_slot = 360; rate = 400_000. };
    ]

let diff_tiers = Service_model.Downgrade { tiers = [| 200_000.; 400_000.; 600_000. |] }

let check_mbac tag (a : Mbac.metrics) (b : Mbac.metrics) =
  check_exact (tag ^ " failure") a.Mbac.failure_probability b.Mbac.failure_probability;
  check_exact (tag ^ " utilization") a.Mbac.utilization b.Mbac.utilization;
  check_exact (tag ^ " blocking") a.Mbac.call_blocking b.Mbac.call_blocking;
  check_exact (tag ^ " denials") a.Mbac.denial_fraction b.Mbac.denial_fraction;
  check_exact (tag ^ " mean calls") a.Mbac.mean_calls_in_system
    b.Mbac.mean_calls_in_system;
  Alcotest.(check int) (tag ^ " windows") a.Mbac.windows b.Mbac.windows;
  Alcotest.(check int) (tag ^ " downgrades") a.Mbac.downgrades b.Mbac.downgrades;
  Alcotest.(check int) (tag ^ " upgrades") a.Mbac.upgrades b.Mbac.upgrades;
  Alcotest.(check int) (tag ^ " decisions") a.Mbac.admission.Controller.decisions
    b.Mbac.admission.Controller.decisions;
  Alcotest.(check int) (tag ^ " decision hash")
    a.Mbac.admission.Controller.decision_hash
    b.Mbac.admission.Controller.decision_hash

let test_mbac_differential () =
  (* Three times the offered load a 2 Mb/s link carries. *)
  let arrival_rate =
    3. *. 2e6
    /. (Schedule.mean_rate diff_schedule *. Schedule.duration diff_schedule)
  in
  let run ~capacity service =
    Mbac.run
      {
        (Mbac.default_config ~schedule:diff_schedule ~capacity ~arrival_rate
           ~target:0.1 ~seed:5)
        with
        Mbac.min_windows = 5;
        max_windows = 20;
        service;
      }
      ~controller:(Controller.memory ~capacity ~target:0.1)
  in
  let reference = run ~capacity:2e6 Service_model.Renegotiate in
  Alcotest.(check bool) "renegotiate denies some increases" true
    (reference.Mbac.denial_fraction > 0.);
  check_mbac "mts" reference (run ~capacity:2e6 never_clips);
  let roomy = run ~capacity:2e7 Service_model.Renegotiate in
  check_exact "no change refused at 20 Mb/s" 0. roomy.Mbac.failure_probability;
  check_mbac "downgrade" roomy (run ~capacity:2e7 diff_tiers)

let check_multihop tag (a : Multihop.metrics) (b : Multihop.metrics) =
  Alcotest.(check int) (tag ^ " transit attempts") a.Multihop.transit_attempts
    b.Multihop.transit_attempts;
  Alcotest.(check int) (tag ^ " transit denials") a.Multihop.transit_denials
    b.Multihop.transit_denials;
  Alcotest.(check int) (tag ^ " local attempts") a.Multihop.local_attempts
    b.Multihop.local_attempts;
  Alcotest.(check int) (tag ^ " local denials") a.Multihop.local_denials
    b.Multihop.local_denials;
  Alcotest.(check int) (tag ^ " downgrades") a.Multihop.downgrades
    b.Multihop.downgrades;
  check_exact (tag ^ " utilization") a.Multihop.mean_hop_utilization
    b.Multihop.mean_hop_utilization

let test_multihop_differential () =
  let run ~capacity service =
    fst
      (Multihop.run_net
         {
           Multihop.schedule = diff_schedule;
           topology = Topology.linear ~hops:3 ~capacity;
           transit_calls = 12;
           local_calls_per_link = 10;
           horizon = 2. *. Schedule.duration diff_schedule;
           seed = 3;
           balance = false;
           service;
         }
         Session.no_faults)
  in
  let reference = run ~capacity:8e6 Service_model.Renegotiate in
  Alcotest.(check bool) "renegotiate denies transit increases" true
    (reference.Multihop.transit_denials > 0);
  check_multihop "mts" reference (run ~capacity:8e6 never_clips);
  let roomy = run ~capacity:1e8 Service_model.Renegotiate in
  Alcotest.(check int) "no change refused at 100 Mb/s" 0
    (roomy.Multihop.transit_denials + roomy.Multihop.local_denials);
  check_multihop "downgrade" roomy (run ~capacity:1e8 diff_tiers)

(* Megacall's outcome hash folds the model-only counters, so compare the
   per-shard decision hashes and the totals instead. *)
let check_megacall tag (a : Megacall.metrics) (b : Megacall.metrics) =
  Array.iteri
    (fun i (s : Megacall.shard_metrics) ->
      Alcotest.(check int)
        (Printf.sprintf "%s shard %d decision hash" tag i)
        s.Megacall.decision_hash b.Megacall.shards_.(i).Megacall.decision_hash)
    a.Megacall.shards_;
  List.iter
    (fun (name, f) -> Alcotest.(check int) (tag ^ " " ^ name) (f a) (f b))
    [
      ("arrivals", fun m -> m.Megacall.total_arrivals);
      ("admitted", fun m -> m.Megacall.total_admitted);
      ("denied", fun m -> m.Megacall.total_denied);
      ("reneg attempts", fun m -> m.Megacall.total_reneg_attempts);
      ("reneg denied", fun m -> m.Megacall.total_reneg_denied);
      ("departures", fun m -> m.Megacall.total_departures);
      ("events", fun m -> m.Megacall.total_events);
      ("downgrades", fun m -> m.Megacall.total_downgrades);
      ("upgrades", fun m -> m.Megacall.total_upgrades);
      ("concurrent", fun m -> m.Megacall.concurrent_calls);
      ("audit", fun m -> m.Megacall.audit_violations);
    ]

let test_megacall_differential () =
  let run ~link_load_factor service =
    Megacall.run
      {
        (Megacall.default ~concurrent:2048 ()) with
        Megacall.shards = 2;
        calls_per_shard = 512;
        mean_hold = 2.;
        horizon = 6.;
        link_load_factor;
        service;
      }
  in
  let reference = run ~link_load_factor:1.05 Service_model.Renegotiate in
  Alcotest.(check bool) "renegotiate denies increases" true
    (reference.Megacall.total_reneg_denied > 0);
  check_megacall "mts" reference (run ~link_load_factor:1.05 never_clips);
  let roomy = run ~link_load_factor:100. Service_model.Renegotiate in
  Alcotest.(check int) "no change refused at 100x load" 0
    roomy.Megacall.total_reneg_denied;
  check_megacall "downgrade" roomy
    (run ~link_load_factor:100.
       (Service_model.Downgrade { tiers = [| 64_000.; 256_000.; 1_024_000. |] }))

let check_svc tag (a : Svc_compare.model_metrics) (b : Svc_compare.model_metrics) =
  List.iter
    (fun (name, f) -> Alcotest.(check int) (tag ^ " " ^ name) (f a) (f b))
    [
      ("admitted", fun m -> m.Svc_compare.admitted);
      ("blocked", fun m -> m.Svc_compare.blocked);
      ("reneg attempts", fun m -> m.Svc_compare.reneg_attempts);
      ("reneg denied", fun m -> m.Svc_compare.reneg_denied);
      ("downgrades", fun m -> m.Svc_compare.downgrades);
      ("upgrades", fun m -> m.Svc_compare.upgrades);
      ("departures", fun m -> m.Svc_compare.departures);
      ("decision hash", fun m -> m.Svc_compare.decision_hash);
      ("outcome hash", fun m -> m.Svc_compare.outcome_hash);
    ];
  check_exact (tag ^ " utilization") a.Svc_compare.mean_utilization
    b.Svc_compare.mean_utilization;
  check_exact (tag ^ " fairness") a.Svc_compare.jain_fairness
    b.Svc_compare.jain_fairness

let test_svc_compare_differential () =
  let cfg capacity = { Svc_compare.calls = 96; capacity; arrival_window = 10. } in
  let reference = Svc_compare.run_model (cfg 2e6) Service_model.Renegotiate in
  Alcotest.(check bool) "renegotiate denies increases" true
    (reference.Svc_compare.reneg_denied > 0);
  check_svc "mts" reference (Svc_compare.run_model (cfg 2e6) never_clips);
  let roomy = Svc_compare.run_model (cfg 1e9) Service_model.Renegotiate in
  Alcotest.(check int) "no change refused at 1 Gb/s" 0
    roomy.Svc_compare.reneg_denied;
  check_svc "downgrade" roomy
    (Svc_compare.run_model (cfg 1e9)
       (Service_model.Downgrade { tiers = [| 64_000.; 256_000.; 1_024_000. |] }))

(* --- where MTS policing reaches admission ----------------------------- *)

(* svc-compare's MTS run keeps Renegotiate's decision hash by
   construction, not by accident: its [Controller.perfect] decides on
   the call count alone, the pre-generated workload fixes every arrival
   and departure time, and MTS polices only established calls — so the
   admit/deny sequence cannot move, while the outcomes do. *)
let test_svc_compare_mts_admission_identity () =
  let m = Svc_compare.run (Svc_compare.default ()) in
  let reneg = m.Svc_compare.models.(0) and mts = m.Svc_compare.models.(2) in
  Alcotest.(check string) "mts column" "mts" mts.Svc_compare.model;
  Alcotest.(check bool) "policing acts" true (mts.Svc_compare.downgrades > 0);
  Alcotest.(check bool) "outcomes differ" true
    (mts.Svc_compare.outcome_hash <> reneg.Svc_compare.outcome_hash);
  Alcotest.(check int) "same admit/deny sequence" reneg.Svc_compare.decision_hash
    mts.Svc_compare.decision_hash

(* The counterpart: the memory controller learns from the rates calls
   actually hold, so under the CLI's default MTS ladder the policed
   rates reach its histograms and move its decisions.  With one
   arrival path in the seed's draw order, policing is the only cause. *)
let test_mbac_mts_moves_memory_controller () =
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames:2_000 ~seed:42 () in
  let schedule = Optimal.solve (Optimal.default_params ~cost_ratio:2e5 trace) trace in
  let capacity = 16. *. Rcbr_traffic.Trace.mean_rate trace in
  let arrival_rate =
    capacity /. (Schedule.mean_rate schedule *. Schedule.duration schedule)
  in
  let run service =
    Mbac.run
      {
        (Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3
           ~seed:43)
        with
        Mbac.service;
      }
      ~controller:(Controller.memory ~capacity ~target:1e-3)
  in
  let reneg = run Service_model.Renegotiate in
  let mts =
    run (Service_model.Mts_profile (Mts.of_schedule schedule ~scales:3 ~base_window:16))
  in
  Alcotest.(check bool) "policing acts" true (mts.Mbac.downgrades > 0);
  Alcotest.(check bool) "decision hash moves" true
    (mts.Mbac.admission.Controller.decision_hash
    <> reneg.Mbac.admission.Controller.decision_hash)

let () =
  Alcotest.run "rcbr_policy"
    [
      ( "ladder",
        [
          Alcotest.test_case "decide_tiers" `Quick test_decide_tiers;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "of_spec" `Quick test_of_spec;
          Alcotest.test_case "denial rule table" `Quick test_denial_table;
        ] );
      ( "mts",
        [
          Alcotest.test_case "police" `Quick test_mts_police;
          Alcotest.test_case "ladder shape" `Quick test_mts_ladder;
        ] );
      ( "session",
        [
          Alcotest.test_case "settle at floor, audit clean" `Quick
            test_settle_at_floor_audits_clean;
          Alcotest.test_case "upgrade races departure" `Quick
            test_upgrade_races_departure;
          Alcotest.test_case "upgrades in downgrade order" `Quick
            test_upgrade_queue_order;
          Alcotest.test_case "mts polices from placement" `Quick
            test_mts_polices_from_placement;
        ] );
      ( "controller",
        [
          Alcotest.test_case "place = admit under Renegotiate" `Quick
            test_controller_place_renegotiate_identity;
        ] );
      ( "properties",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_downgrade_capacity ] );
      ( "engines",
        [
          Alcotest.test_case "megacall downgrade pool identity" `Quick
            test_megacall_downgrade_pool_identity;
          Alcotest.test_case "svc-compare deterministic" `Quick
            test_svc_compare_deterministic;
        ] );
      ( "differential",
        [
          Alcotest.test_case "mbac never-acting models = renegotiate" `Quick
            test_mbac_differential;
          Alcotest.test_case "multihop never-acting models = renegotiate"
            `Quick test_multihop_differential;
          Alcotest.test_case "megacall never-acting models = renegotiate"
            `Quick test_megacall_differential;
          Alcotest.test_case "svc-compare never-acting models = renegotiate"
            `Quick test_svc_compare_differential;
          Alcotest.test_case "svc-compare mts keeps the admit/deny sequence"
            `Quick test_svc_compare_mts_admission_identity;
          Alcotest.test_case "mbac mts moves the memory controller" `Quick
            test_mbac_mts_moves_memory_controller;
        ] );
    ]
