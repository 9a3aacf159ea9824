(* Unit and property tests for Rcbr_policy: the tier-ladder walk, the
   MTS token-bucket policer, CLI spec parsing, the store-level
   downgrade-upgrade machinery, and the service-model plumbing through
   the admission controller and the engines (Controller.decide under
   Renegotiate must be decision-for-decision identical to admit;
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
module Pool = Rcbr_util.Pool

let checkf = Alcotest.(check (float 1e-9))

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
      Alcotest.(check int) "profile scales" 2 (Mts.scales p)
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
  Alcotest.(check int) "scales" 3 (Mts.scales p);
  checkf "scale 0 polices the peak" 40. p.Mts.rates.(0);
  checkf "last scale polices the mean" 10. p.Mts.rates.(2);
  Alcotest.(check bool) "depths grow with the time scale" true
    (p.Mts.depths.(2) > p.Mts.depths.(0))

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
  checkf "link demand" 10_500. links.(0).Link.demand;
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store);
  checkf "demand tracked" 6_000. (Store.demanded store b)

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
  (* Same tick: the upgrade probe fires before the departure settles —
     the link still carries the departing call, so nothing fits ... *)
  Alcotest.(check bool) "upgrade loses the race" true
    (Store.try_upgrade model ~links store b ~now:1. = None);
  (* ... and after the departure settles, the probe restores the full
     demanded rate.  Drivers run their upgrade scans after the
     departure bookkeeping for exactly this reason. *)
  Store.settle ~links store a ~rate:0.;
  Store.release store a;
  (match Store.try_upgrade model ~links store b ~now:1. with
  | Some r ->
      checkf "full restore after departure" 8_000. r;
      Store.settle ~links store b ~rate:r
  | None -> Alcotest.fail "expected upgrade after departure");
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store)

(* Recycled handles put handle order and call-id order apart; the
   spare capacity must go to the oldest call (lowest id) first. *)
let test_upgrade_scan_call_id_order () =
  let links = single_link ~capacity:10_000. in
  let store = Store.create () in
  let old = call store ~id:0 in
  let mid = call store ~id:1 in
  Store.settle ~links store mid ~rate:1_000.;
  (* Call 0 leaves; call 2 recycles its handle, which now sorts first. *)
  Store.release store old;
  let young = call store ~id:2 in
  Alcotest.(check bool) "handle order differs from id order" true (young < mid);
  Store.settle ~links store young ~rate:1_000.;
  let blocker = call store ~id:3 in
  Store.settle ~links store blocker ~rate:8_000.;
  List.iter
    (fun h ->
      match Store.decide model ~links store h ~now:0. ~demanded:8_000. with
      | Service_model.Settle_floor _ | Service_model.Downgrade_to _ -> ()
      | _ -> Alcotest.fail "expected a downgrade")
    [ mid; young ];
  (* The blocker leaves: 8k of room, enough to restore only one call. *)
  Store.settle ~links store blocker ~rate:0.;
  Store.release store blocker;
  let order = ref [] in
  Store.upgrade_scan model ~links store ~now:1. (fun h r ->
      order := Store.id store h :: !order;
      Store.settle ~links store h ~rate:r);
  Alcotest.(check (list int)) "the lower call id wins the room" [ 1 ]
    (List.rev !order);
  checkf "older call fully restored" 8_000. (Store.applied store mid);
  checkf "younger call stays at the floor" 1_000. (Store.applied store young);
  Alcotest.(check int) "audit clean" 0 (Store.audit ~links store)

(* --- Controller.decide ≡ admit under Renegotiate --------------------- *)

let test_controller_decide_renegotiate_identity () =
  let descriptor =
    Descriptor.create ~levels:[| 1_000.; 2_000. |] ~fractions:[| 0.5; 0.5 |]
  in
  let mk () = Controller.perfect ~descriptor ~capacity:12_000. ~target:1e-3 in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "default service" true
    (Controller.service b = Service_model.Renegotiate);
  for i = 0 to 39 do
    let now = float_of_int i in
    let adm = Controller.admit a ~now in
    (* [fits] must never be probed under Renegotiate. *)
    (match
       Controller.decide b ~now ~demanded:2_000. ~fits:(fun _ ->
           Alcotest.fail "Renegotiate probed fits")
     with
    | Controller.Blocked -> Alcotest.(check bool) "decisions agree" false adm
    | Controller.Admit { granted; tier; downgraded } ->
        Alcotest.(check bool) "decisions agree" true adm;
        checkf "full grant" 2_000. granted;
        Alcotest.(check int) "no tier" (-1) tier;
        Alcotest.(check bool) "not downgraded" false downgraded);
    if adm then begin
      Controller.on_admit a ~now ~call:i ~rate:2_000.;
      Controller.on_admit b ~now ~call:i ~rate:2_000.
    end
  done;
  Alcotest.(check int) "identical decision hashes"
    (Controller.stats a).Controller.decision_hash
    (Controller.stats b).Controller.decision_hash

(* --- property: Downgrade never oversubscribes the link --------------- *)

(* Arrivals that fit no tier are Blocked (no settle-floor right), and
   every admitted call holds at least the floor, so established-call
   Settle_floor settles can only lower the link demand.  Hence: as long
   as demands stay at or above the floor, the total granted rate never
   exceeds capacity — under any interleaving of arrivals, changes,
   departures and upgrade scans. *)
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
      let store = Store.create () and next_id = ref 0 in
      let check_cap () =
        if links.(0).Link.demand > capacity +. 1e-6 then
          QCheck.Test.fail_reportf "demand %.1f > capacity %.1f"
            links.(0).Link.demand capacity
      in
      let pick v =
        let live = ref [] in
        Store.iter_live store (fun h -> live := h :: !live);
        List.nth !live (v mod List.length !live)
      in
      List.iter
        (fun (op, v) ->
          (* Demands stay at or above the floor tier. *)
          let demand = float_of_int (1 + (v mod 9)) *. 1_000. in
          (match op with
          | 0 -> (
              let h = call store ~id:!next_id in
              incr next_id;
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
              Store.upgrade_scan model ~links store ~now:0. (fun h r ->
                  Store.settle ~links store h ~rate:r)
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
    {
      (Svc_compare.default ()) with
      Svc_compare.calls = 96;
      capacity = 2_000_000.;
      arrival_window = 10.;
    }
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
  (* Downgrade pin: recycled handles put this workload's handle order
     apart from its call-id order, so an upgrade scan in handle order
     lands a different outcome hash (value from the record-session
     engine, which scanned by ascending call id). *)
  Alcotest.(check int) "downgrade outcome pinned" 1382759711495414427
    seq.Svc_compare.models.(1).Svc_compare.outcome_hash;
  (* Renegotiate grants every admitted demand in full, so its fairness
     over admitted calls is exact: J = admitted / arrivals. *)
  let r = seq.Svc_compare.models.(0) in
  Alcotest.(check (float 1e-9)) "renegotiate jain = admitted/arrivals"
    (float_of_int r.Svc_compare.admitted /. float_of_int r.Svc_compare.arrivals)
    r.Svc_compare.jain_fairness

let () =
  Alcotest.run "rcbr_policy"
    [
      ( "ladder",
        [
          Alcotest.test_case "decide_tiers" `Quick test_decide_tiers;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "of_spec" `Quick test_of_spec;
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
          Alcotest.test_case "upgrade scan in call-id order" `Quick
            test_upgrade_scan_call_id_order;
        ] );
      ( "controller",
        [
          Alcotest.test_case "decide = admit under Renegotiate" `Quick
            test_controller_decide_renegotiate_identity;
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
    ]
