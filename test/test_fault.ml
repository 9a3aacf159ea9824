(* Fault-injection layer: plans, injectors, the conservation invariant,
   the retransmitting NIU, and the faulty call-level simulators.

   The two load-bearing guarantees tested here:
   - under the null fault plan every faulty code path is bit-identical
     to the historical fault-free behaviour, and
   - under real faults (lossy RM cells, crashes) reserved bandwidth is
     conserved at every port and retransmissions stay bounded. *)

module Plan = Rcbr_fault.Plan
module Injector = Rcbr_fault.Injector
module Invariant = Rcbr_fault.Invariant
module Rm_cell = Rcbr_signal.Rm_cell
module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path
module Niu = Rcbr_signal.Niu
module Online = Rcbr_core.Online
module Schedule = Rcbr_core.Schedule
module Trace = Rcbr_traffic.Trace
module Multihop = Rcbr_sim.Multihop
module Mbac = Rcbr_sim.Mbac
module Controller = Rcbr_admission.Controller
module Session = Rcbr_net.Session

let check_close eps = Alcotest.(check (float eps))
let trace = Rcbr_traffic.Synthetic.star_wars ~frames:6_000 ~seed:42 ()

(* --- Plan and injector --- *)

let test_plan_null () =
  let p = Plan.null ~hops:4 in
  Alcotest.(check bool) "null is null" true (Plan.is_null p);
  Alcotest.(check bool) "lossy is not" false
    (Plan.is_null (Plan.uniform ~drop:0.1 ~hops:4 ~seed:1 ()));
  Alcotest.(check bool) "crash is not" false
    (Plan.is_null
       (Plan.uniform ~crashes:[ { Plan.hop = 0; at_slot = 1; recover_slot = 2 } ]
          ~hops:4 ~seed:1 ()));
  Plan.validate p

let test_plan_validate_rejects () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "probability > 1" true
    (bad (fun () -> Plan.validate (Plan.uniform ~drop:1.5 ~hops:1 ~seed:0 ())));
  Alcotest.(check bool) "sum > 1" true
    (bad (fun () ->
         Plan.validate
           (Plan.uniform ~drop:0.6 ~duplicate:0.6 ~hops:1 ~seed:0 ())));
  Alcotest.(check bool) "empty crash window" true
    (bad (fun () ->
         Plan.validate
           (Plan.uniform
              ~crashes:[ { Plan.hop = 0; at_slot = 5; recover_slot = 5 } ]
              ~hops:1 ~seed:0 ())));
  Alcotest.(check bool) "crash beyond path" true
    (bad (fun () ->
         Plan.validate
           (Plan.uniform
              ~crashes:[ { Plan.hop = 3; at_slot = 0; recover_slot = 1 } ]
              ~hops:2 ~seed:0 ())))

let test_injector_null_delivers () =
  let inj = Injector.create (Plan.null ~hops:3) in
  for _ = 1 to 200 do
    for hop = 0 to 2 do
      Alcotest.(check bool) "deliver" true (Injector.fate inj ~hop = Deliver)
    done
  done;
  let t = Injector.totals inj in
  Alcotest.(check int) "sent" 600 t.Injector.sent;
  Alcotest.(check int) "dropped" 0 t.Injector.dropped;
  Alcotest.(check int) "duplicated" 0 t.Injector.duplicated;
  Alcotest.(check int) "delayed" 0 t.Injector.delayed;
  Alcotest.(check int) "jitter 0 free" 0 (Injector.jitter inj 0)

let test_injector_deterministic () =
  let plan =
    Plan.uniform ~drop:0.2 ~duplicate:0.1 ~reorder:0.1 ~delay:0.1 ~hops:2
      ~seed:99 ()
  in
  let a = Injector.create plan and b = Injector.create plan in
  for _ = 1 to 500 do
    for hop = 0 to 1 do
      Alcotest.(check bool) "same fate stream" true
        (Injector.fate a ~hop = Injector.fate b ~hop)
    done
  done;
  let ta = Injector.totals a and tb = Injector.totals b in
  Alcotest.(check int) "same drops" ta.Injector.dropped tb.Injector.dropped;
  Alcotest.(check bool) "faults actually injected" true
    (ta.Injector.dropped > 0 && ta.Injector.duplicated > 0)

(* --- Invariant checker --- *)

let test_invariant_flags_breakage () =
  let ok =
    { Invariant.index = 0; capacity = 100.; reserved = 60.;
      vci_rates = [ (1, 25.); (2, 35.) ] }
  in
  Alcotest.(check int) "consistent port passes" 0
    (List.length (Invariant.check [| ok |]));
  (* One view per check; a negative aggregate cannot match a sum of
     nonnegative rates, so view 0 also carries a negative VCI. *)
  let views =
    [|
      { ok with Invariant.reserved = -1.; vci_rates = [ (1, -1.) ] };
      { ok with Invariant.index = 1; reserved = 150.; vci_rates = [ (1, 150.) ] };
      { ok with Invariant.index = 2; vci_rates = [ (1, 50.) ] };
      { ok with Invariant.index = 3; vci_rates = [ (1, 61.); (2, -1.) ] };
    |]
  in
  Alcotest.(check (list (pair int string)))
    "negative, overflow, mismatch, negative vci"
    [
      (0, "negative reservation -1");
      (0, "VCI 1 at negative rate -1");
      (1, "reserved 150 exceeds capacity 100");
      (2, "aggregate 60 != sum of per-VCI rates 50");
      (3, "VCI 2 at negative rate -1");
    ]
    (List.map
       (fun v -> (v.Invariant.port, v.Invariant.what))
       (Invariant.check views));
  (* Settle-style bookkeeping may legally exceed capacity. *)
  Alcotest.(check int) "capacity check can be waived" 0
    (List.length
       (Invariant.check ~check_capacity:false
          [| { ok with Invariant.reserved = 150.; vci_rates = [ (1, 150.) ] } |]))

(* --- Idempotent port requests --- *)

let test_port_request_idempotent () =
  let p = Port.create ~capacity:100. () in
  let cell = Rm_cell.delta ~vci:1 40. in
  Alcotest.(check bool) "granted" true
    (Port.process_request p ~req_id:1 cell = `Granted);
  (* A retransmission (or duplicated cell) of the same request must not
     double-apply. *)
  Alcotest.(check bool) "duplicate acked" true
    (Port.process_request p ~req_id:1 cell = `Granted);
  check_close 1e-12 "applied once" 40. (Port.reserved p);
  (* A fresh request applies again. *)
  ignore (Port.process_request p ~req_id:2 cell);
  check_close 1e-12 "applied twice" 80. (Port.reserved p)

let test_port_rollback_idempotent () =
  let p = Port.create ~capacity:100. () in
  let cell = Rm_cell.delta ~vci:1 40. in
  ignore (Port.process_request p ~req_id:1 cell);
  let reverse = Rm_cell.delta ~vci:1 (-40.) in
  Port.rollback_request p ~req_id:1 reverse;
  check_close 1e-12 "rolled back" 0. (Port.reserved p);
  (* A duplicated rollback cell is harmless. *)
  Port.rollback_request p ~req_id:1 reverse;
  check_close 1e-12 "rolled back once" 0. (Port.reserved p);
  (* And the same request id can then be evaluated afresh (it is no
     longer applied). *)
  Alcotest.(check bool) "re-evaluated" true
    (Port.process_request p ~req_id:1 cell = `Granted);
  check_close 1e-12 "reapplied" 40. (Port.reserved p)

let test_port_crash_recover () =
  let p = Port.create ~capacity:100. () in
  ignore (Port.process p (Rm_cell.delta ~vci:1 40.));
  ignore (Port.process p (Rm_cell.delta ~vci:2 30.));
  Port.crash p;
  Alcotest.(check bool) "down" false (Port.is_up p);
  check_close 1e-12 "reservations lost" 0. (Port.reserved p);
  check_close 1e-12 "vci state lost" 0. (Port.vci_rate p 1);
  Alcotest.(check bool) "denies while down" true
    (Port.process p (Rm_cell.delta ~vci:3 1.) = `Denied);
  Port.recover p;
  Alcotest.(check bool) "up" true (Port.is_up p);
  check_close 1e-12 "recovers empty" 0. (Port.reserved p);
  (* A resync re-admits the connection from scratch. *)
  ignore (Port.process p (Rm_cell.resync ~vci:1 40.));
  check_close 1e-12 "rebuilt" 40. (Port.reserved p)

(* --- NIU over the faulty plane --- *)

let niu_ports ?(capacity = 10e6) hops =
  List.init hops (fun _ -> Port.create ~capacity ())

let check_bits msg a b =
  Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_niu_null_plan_bit_identical () =
  (* The reliable plane is one configuration of the retransmitting state
     machine: on integer rates even the periodic resyncs of a null plan
     leave every output bit where the resync-free run puts it. *)
  let run faults =
    let path =
      Path.create_exn (niu_ports 3) ~vci:1 ~initial_rate:400_000.
    in
    Niu.stream { Niu.default_params with Niu.faults } ~path trace
  in
  let reliable = run Niu.no_faults in
  let null = run (Niu.default_faults (Plan.null ~hops:3)) in
  Alcotest.(check int) "attempts" reliable.Niu.attempts null.Niu.attempts;
  Alcotest.(check int) "failures" reliable.Niu.failures null.Niu.failures;
  check_bits "bits lost" reliable.Niu.bits_lost null.Niu.bits_lost;
  check_bits "max backlog" reliable.Niu.max_backlog null.Niu.max_backlog;
  check_bits "mean reserved" reliable.Niu.mean_reserved
    null.Niu.mean_reserved;
  let ra = Schedule.to_rates reliable.Niu.schedule
  and rb = Schedule.to_rates null.Niu.schedule in
  Alcotest.(check int) "schedule length" (Array.length ra) (Array.length rb);
  Array.iteri (fun i r -> check_bits "slot rate" r rb.(i)) ra;
  Alcotest.(check int) "the reliable plane never resyncs" 0
    reliable.Niu.faults.Niu.resyncs;
  Alcotest.(check bool) "the null plan does" true
    (null.Niu.faults.Niu.resyncs > 0);
  let f = null.Niu.faults in
  Alcotest.(check int) "no retransmits" 0 f.Niu.retransmits;
  Alcotest.(check int) "no give-ups" 0 f.Niu.give_ups;
  Alcotest.(check int) "no violations" 0 f.Niu.invariant_violations;
  check_bits "no drift" 0. f.Niu.final_drift;
  Alcotest.(check int) "nothing dropped" 0 f.Niu.cells.Injector.dropped

(* Golden digests of the fault-free NIU over a small grid: a contended
   1.2 Mb/s hop and a 3-hop path whose 1 Mb/s middle hop carries a
   450 kb/s cross call, at signalling delays 0 and 48, retry off or
   every 3 slots, and the paper's 100 kb/s granularity or an off-grid
   33 333.3 b/s one.  Each digest covers attempts, failures, the bits of
   every float outcome, the schedule and each port's final reservation,
   so any refactoring of the slot loop must leave all of them intact. *)
let niu_digest (r : Niu.outcome) ports =
  let b = Buffer.create 1024 in
  let bits x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  Printf.bprintf b "%d;%d;" r.Niu.attempts r.Niu.failures;
  bits r.Niu.bits_lost;
  bits r.Niu.max_backlog;
  bits r.Niu.mean_reserved;
  Array.iter
    (fun s ->
      Printf.bprintf b "%d:" s.Schedule.start_slot;
      bits s.Schedule.rate)
    (Schedule.segments r.Niu.schedule);
  List.iter (fun p -> bits (Port.reserved p)) ports;
  Digest.to_hex (Digest.string (Buffer.contents b))

let niu_golden_grid () =
  let tau = Trace.slot_duration trace in
  let first = Trace.frame trace 0 /. tau in
  let topologies =
    [
      ("1hop-1.2M", fun () -> ([ Port.create ~capacity:1_200_000. () ], 0));
      ( "3hop-cross",
        fun () ->
          ( [
              Port.create ~capacity:10e6 ();
              Port.create ~capacity:1_000_000. ();
              Port.create ~capacity:10e6 ();
            ],
            1 ) );
    ]
  in
  List.concat_map
    (fun (topo, make) ->
      List.concat_map
        (fun delay_slots ->
          List.concat_map
            (fun retry_slots ->
              List.map
                (fun granularity ->
                  let ports, cross_hop = make () in
                  let cross =
                    if List.length ports > 1 then
                      Some
                        (Path.create_exn
                           [ List.nth ports cross_hop ]
                           ~vci:2 ~initial_rate:450_000.)
                    else None
                  in
                  let initial =
                    granularity *. Float.max 1. (Float.ceil (first /. granularity))
                  in
                  let path = Path.create_exn ports ~vci:1 ~initial_rate:initial in
                  let p =
                    {
                      Niu.default_params with
                      Niu.online =
                        { Online.default_params with Online.granularity };
                      delay_slots;
                      retry_slots;
                    }
                  in
                  let r = Niu.stream p ~path trace in
                  let label =
                    Printf.sprintf "%s d%d r%s g%g" topo delay_slots
                      (match retry_slots with
                      | None -> "-"
                      | Some k -> string_of_int k)
                      granularity
                  in
                  Option.iter Path.teardown cross;
                  (label, r.Niu.failures, niu_digest r ports))
                [ 100_000.; 33_333.3 ])
            [ None; Some 3 ])
        [ 0; 48 ])
    topologies

let niu_golden =
  [
    ("1hop-1.2M d0 r- g100000", "e5031bca4a3ada187839366726214060");
    ("1hop-1.2M d0 r- g33333.3", "2013480cdafb5ceef1a7c7015fb98db9");
    ("1hop-1.2M d0 r3 g100000", "7e7619e4306c9e443943a3a17cfc30e0");
    ("1hop-1.2M d0 r3 g33333.3", "0a71ac9ec45ccabe081366ee615669d3");
    ("1hop-1.2M d48 r- g100000", "ef8794bbd9847a512705b1b476fcbfee");
    ("1hop-1.2M d48 r- g33333.3", "5955936ff6ca6db58e384b4370f45e7d");
    ("1hop-1.2M d48 r3 g100000", "18d35b61244101c136917f8f6636e65e");
    ("1hop-1.2M d48 r3 g33333.3", "5e0efffd922730b1a27386aa9299cd8f");
    ("3hop-cross d0 r- g100000", "ae960d0c76dabfef4c9cf5fa8f7b8196");
    ("3hop-cross d0 r- g33333.3", "3d5521659fc03b967030491942a1863c");
    ("3hop-cross d0 r3 g100000", "60ccce222be8f28076d1b05423ca456c");
    ("3hop-cross d0 r3 g33333.3", "4c8b43aa565127bfc0efd7a00ddeaac3");
    ("3hop-cross d48 r- g100000", "6418b9f948d4a146ec70e420a171e8d0");
    ("3hop-cross d48 r- g33333.3", "a332f70e006018459ae1d0abd5d7e2c6");
    ("3hop-cross d48 r3 g100000", "49d65ae790e07f142153407dcf6957ae");
    ("3hop-cross d48 r3 g33333.3", "a15433daca2968eed5f64a2812202e62");
  ]

let test_niu_golden_digests () =
  let runs = niu_golden_grid () in
  Alcotest.(check bool) "the grid exercises denials" true
    (List.exists (fun (_, failures, _) -> failures > 0) runs);
  Alcotest.(check (list (pair string string)))
    "digests" niu_golden
    (List.map (fun (label, _, d) -> (label, d)) runs)

(* Golden digests of the NIU over faulty planes: a 1 Mb/s bottleneck
   carrying a 450 kb/s cross call, alone or as the middle of three hops,
   under a lossy plan (drop, duplicate, reorder and delay on every
   link), a crash window on the middle hop, or both; at signalling
   delays 0 and 3, under each degrade policy.  Each digest extends the
   reliable one with every fault_report field, the injector totals
   included, so a hop walk that reorders, adds or drops a fault decision
   changes it. *)
let niu_fault_digest (r : Niu.outcome) ports =
  let f = r.Niu.faults and c = r.Niu.faults.Niu.cells in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s;%d;%d;%d;%d;%d;%Lx;%d;%d;%d;%d;%d;%d;%d;%d;%d;%Lx"
          (niu_digest r ports) f.Niu.retransmits f.Niu.timeouts
          f.Niu.give_ups f.Niu.resyncs f.Niu.degraded_slots
          (Int64.bits_of_float f.Niu.bits_scaled)
          f.Niu.worst_retransmits f.Niu.crashes f.Niu.recoveries
          c.Injector.sent c.Injector.dropped c.Injector.duplicated
          c.Injector.delayed c.Injector.reordered f.Niu.invariant_violations
          (Int64.bits_of_float f.Niu.final_drift)))

let niu_fault_grid () =
  let plans hops =
    let crashes =
      [ { Plan.hop = hops / 2; at_slot = 1_000; recover_slot = 1_600 } ]
    in
    let lossy =
      Plan.uniform ~drop:0.1 ~duplicate:0.05 ~reorder:0.05 ~delay:0.05 ~hops
        ~seed:7
    in
    [
      ("lossy", lossy ());
      ("crash", Plan.uniform ~crashes ~hops ~seed:7 ());
      ("lossy+crash", lossy ~crashes ());
    ]
  in
  List.concat_map
    (fun hops ->
      List.concat_map
        (fun (plan_name, plan) ->
          List.concat_map
            (fun delay_slots ->
              List.map
                (fun (degrade_name, degrade) ->
                  let ports =
                    List.init hops (fun i ->
                        Port.create
                          ~capacity:(if i = hops / 2 then 1_000_000. else 10e6)
                          ())
                  in
                  let cross =
                    Path.create_exn
                      [ List.nth ports (hops / 2) ]
                      ~vci:2 ~initial_rate:450_000.
                  in
                  let path =
                    Path.create_exn ports ~vci:1 ~initial_rate:400_000.
                  in
                  let p =
                    {
                      Niu.default_params with
                      Niu.delay_slots;
                      faults = { (Niu.default_faults plan) with Niu.degrade };
                    }
                  in
                  let r = Niu.stream p ~path trace in
                  Path.teardown cross;
                  ( Printf.sprintf "%dhop %s d%d %s" hops plan_name delay_slots
                      degrade_name,
                    r,
                    niu_fault_digest r ports ))
                [
                  ("ride", Niu.Ride_out);
                  ("settle", Niu.Settle);
                  ("scale0.5", Niu.Scale 0.5);
                ])
            [ 0; 3 ])
        (plans hops))
    [ 1; 3 ]

let niu_fault_golden =
  [
    ("1hop lossy d0 ride", "8274ee0239402b3cbf3964fe71e366b4");
    ("1hop lossy d0 settle", "0134a40568fbc9490037357d68f140b9");
    ("1hop lossy d0 scale0.5", "dd67597851b2e81fc7063571201f97a4");
    ("1hop lossy d3 ride", "42a2939483f8a9f45ca8a9d204a1b2ef");
    ("1hop lossy d3 settle", "2029aabe667fef41b37d0fed14d6f394");
    ("1hop lossy d3 scale0.5", "3c0a853e1433bc70aac1a46b27dc12b7");
    ("1hop crash d0 ride", "312eba3fa636c612f24a65bae0fd0b12");
    ("1hop crash d0 settle", "651dcfec960a4fdfc65f1d09bb4b8970");
    ("1hop crash d0 scale0.5", "020cfc5f010b5c59b8080b032e519db3");
    ("1hop crash d3 ride", "0572146c4faef5910e80060ad33182a7");
    ("1hop crash d3 settle", "9175756087b12da3958cb9c8d65ee1c0");
    ("1hop crash d3 scale0.5", "e25b9936ec9524f919661dd1f5f28195");
    ("1hop lossy+crash d0 ride", "c5b105f82e1883002a40fff73218b170");
    ("1hop lossy+crash d0 settle", "7963aa3d785990acc5baeff8a70c74b7");
    ("1hop lossy+crash d0 scale0.5", "3628f548e6119c86aeb19015643afacf");
    ("1hop lossy+crash d3 ride", "246d952a15d74cdcd3ad8aa49be988be");
    ("1hop lossy+crash d3 settle", "2c644a44dc918c716cd7aae1e25e9692");
    ("1hop lossy+crash d3 scale0.5", "f243f8784da66844d01f7d00ecac4125");
    ("3hop lossy d0 ride", "b4c59ade9a286e49f94c4bdf9c1ff2f9");
    ("3hop lossy d0 settle", "1b3afbf8f7b8f9bd46e8ac4bba4cc8cd");
    ("3hop lossy d0 scale0.5", "984d8b18d5af009555ae522c4fc55f32");
    ("3hop lossy d3 ride", "7a2b7c6acc7660503437dc6b3b4418c2");
    ("3hop lossy d3 settle", "101af4dc880a8cbcb1cf43c733c392e1");
    ("3hop lossy d3 scale0.5", "ff0da40bc406a6d401764c4e8ab918a2");
    ("3hop crash d0 ride", "8f4830cdc2afb707aded3f0ce850f608");
    ("3hop crash d0 settle", "d01e5c135294fbe909b58ee55be083fa");
    ("3hop crash d0 scale0.5", "37f392cf1dde6a8321c9b7836e50456d");
    ("3hop crash d3 ride", "4f80c0607fb48a6a0735a1a641bf6c1e");
    ("3hop crash d3 settle", "7e67b74581c4c5380bc9db9abd141774");
    ("3hop crash d3 scale0.5", "12e9736e5802d039adcea91f6b337f53");
    ("3hop lossy+crash d0 ride", "4c390fdbe3142c98494de93c3f894b79");
    ("3hop lossy+crash d0 settle", "5f76b0edf0704b9d68682bc265bf4867");
    ("3hop lossy+crash d0 scale0.5", "5fc5745dd05c4f976cae0d25450df9b0");
    ("3hop lossy+crash d3 ride", "77b5e089e271129d36fab4df57e41c34");
    ("3hop lossy+crash d3 settle", "4d430a21dbea13712faf6bf0a42ec82a");
    ("3hop lossy+crash d3 scale0.5", "0b94d91260c476b949bb777e0a13c820");
  ]

let test_niu_fault_golden_digests () =
  let runs = niu_fault_grid () in
  let some p = List.exists (fun (_, r, _) -> p r) runs in
  let faults (r : Niu.outcome) = r.Niu.faults in
  Alcotest.(check bool) "the grid denies, retransmits, gives up and sheds" true
    (some (fun r -> r.Niu.failures > 0)
    && some (fun r -> (faults r).Niu.retransmits > 0)
    && some (fun r -> (faults r).Niu.give_ups > 0)
    && some (fun r -> (faults r).Niu.bits_scaled > 0.)
    && some (fun r -> (faults r).Niu.cells.Injector.duplicated > 0)
    && some (fun r -> (faults r).Niu.cells.Injector.reordered > 0)
    && some (fun r -> (faults r).Niu.cells.Injector.delayed > 0));
  Alcotest.(check int) "no run breaks conservation" 0
    (List.fold_left
       (fun acc (_, r, _) -> acc + (faults r).Niu.invariant_violations)
       0 runs);
  Alcotest.(check (list (pair string string)))
    "digests" niu_fault_golden
    (List.map (fun (label, _, d) -> (label, d)) runs)

(* Plan validation: a null plan carries nothing per hop and can lose no
   request, so neither its length nor its timeout is checked; a lossy
   plan must match the path and time out after a healthy round-trip. *)
let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let stream_on_two_hops p =
  let ports = niu_ports 2 in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:400_000. in
  let r = Niu.stream p ~path trace in
  (r, ports)

let test_niu_null_plan_any_length () =
  let reliable, _ = stream_on_two_hops Niu.default_params in
  List.iter
    (fun hops ->
      let r, ports =
        stream_on_two_hops
          {
            Niu.default_params with
            Niu.faults = { Niu.no_faults with Niu.plan = Plan.null ~hops };
          }
      in
      let label = Printf.sprintf "null plan of %d hops" hops in
      Alcotest.(check string) label
        (niu_digest reliable ports) (niu_digest r ports);
      Alcotest.(check int) (label ^ ": cells cross both hops")
        reliable.Niu.faults.Niu.cells.Injector.sent
        r.Niu.faults.Niu.cells.Injector.sent)
    [ 0; 1; 5 ]

let test_niu_lossy_plan_wrong_length () =
  List.iter
    (fun hops ->
      let plan = Plan.uniform ~drop:0.1 ~hops ~seed:1 () in
      let faults = Niu.default_faults plan in
      Alcotest.(check bool)
        (Printf.sprintf "lossy plan of %d hops on 2" hops)
        true
        (raises_invalid (fun () ->
             stream_on_two_hops { Niu.default_params with Niu.faults })))
    [ 1; 3 ]

let test_niu_lossy_plan_needs_timeout () =
  let faults = Niu.default_faults (Plan.uniform ~drop:0.1 ~hops:2 ~seed:1 ()) in
  List.iter
    (fun delay_slots ->
      Alcotest.(check bool)
        (Printf.sprintf "timeout 8 with delay %d" delay_slots)
        true
        (raises_invalid (fun () ->
             stream_on_two_hops
               { Niu.default_params with Niu.faults; delay_slots })))
    [ 8; 9; 48 ]

let test_niu_null_plan_ignores_timeout () =
  List.iter
    (fun delay_slots ->
      let r, _ =
        stream_on_two_hops
          {
            Niu.default_params with
            Niu.faults =
              { (Niu.default_faults (Plan.null ~hops:2)) with
                Niu.timeout_slots = 1 };
            delay_slots;
          }
      in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d runs" delay_slots)
        true (r.Niu.attempts > 0);
      Alcotest.(check int) "and never times out" 0 r.Niu.faults.Niu.timeouts)
    [ 1; 8; 48 ]

let test_niu_lossy_three_hop () =
  (* The headline robustness scenario: 10% RM-cell drop on every link of
     a 3-hop path.  The stream must complete with conserved reservations,
     bounded retransmissions and a clean teardown. *)
  let ports = niu_ports 3 in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:400_000. in
  let plan = Plan.uniform ~drop:0.1 ~hops:3 ~seed:11 () in
  let faults = Niu.default_faults plan in
  let r = Niu.stream { Niu.default_params with Niu.faults } ~path trace in
  Alcotest.(check bool) "renegotiated" true (r.Niu.attempts > 0);
  let f = r.Niu.faults in
  Alcotest.(check bool) "cells were dropped" true
    (f.Niu.cells.Injector.dropped > 0);
  Alcotest.(check bool) "losses were retransmitted" true
    (f.Niu.retransmits > 0);
  Alcotest.(check bool) "retransmits bounded" true
    (f.Niu.worst_retransmits <= faults.Niu.max_retransmits);
  Alcotest.(check int) "reservation conservation" 0 f.Niu.invariant_violations;
  Alcotest.(check bool) "degradation accounted" true
    (f.Niu.degraded_slots >= 0 && f.Niu.bits_scaled >= 0.);
  (* The path still agrees with the network about its own rate closely
     enough for an exact teardown. *)
  Path.teardown path;
  List.iter
    (fun p -> check_close 1e-6 "clean teardown" 0. (Port.reserved p))
    ports

let test_niu_crash_recovery_resync () =
  let ports = niu_ports 2 in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:400_000. in
  let plan =
    Plan.uniform
      ~crashes:[ { Plan.hop = 1; at_slot = 1_000; recover_slot = 1_200 } ]
      ~hops:2 ~seed:3 ()
  in
  let r =
    Niu.stream
      { Niu.default_params with Niu.faults = Niu.default_faults plan }
      ~path trace
  in
  let f = r.Niu.faults in
  Alcotest.(check int) "one crash" 1 f.Niu.crashes;
  Alcotest.(check int) "one recovery" 1 f.Niu.recoveries;
  Alcotest.(check bool) "resyncs repaired the recovered port" true
    (f.Niu.resyncs > 0);
  Alcotest.(check int) "conservation after crash" 0 f.Niu.invariant_violations;
  (* The periodic resync rebuilt the recovered port's belief. *)
  check_close 1e-6 "drift repaired" 0. f.Niu.final_drift;
  Path.teardown path;
  List.iter
    (fun p -> check_close 1e-6 "clean teardown" 0. (Port.reserved p))
    ports

let test_niu_degradation_policies () =
  (* A contended bottleneck: Settle and Scale must mark degraded slots;
     Scale additionally sheds source bits while starved. *)
  let run degrade =
    let bottleneck = Port.create ~capacity:1_000_000. () in
    let cross = Path.create_exn [ bottleneck ] ~vci:2 ~initial_rate:450_000. in
    let path = Path.create_exn [ bottleneck ] ~vci:1 ~initial_rate:300_000. in
    let faults =
      { (Niu.default_faults (Plan.null ~hops:1)) with Niu.degrade }
    in
    let r = Niu.stream { Niu.default_params with Niu.faults } ~path trace in
    Path.teardown path;
    Path.teardown cross;
    (r, r.Niu.faults)
  in
  let _, ride = run Niu.Ride_out in
  let settle_r, settle = run Niu.Settle in
  let scale_r, scale = run (Niu.Scale 0.5) in
  Alcotest.(check bool) "contention degrades" true
    (settle.Niu.degraded_slots > 0);
  check_close 1e-9 "ride_out sheds nothing" 0. ride.Niu.bits_scaled;
  check_close 1e-9 "settle sheds nothing" 0. settle.Niu.bits_scaled;
  Alcotest.(check bool) "scale sheds while starved" true
    (scale.Niu.bits_scaled > 0.);
  Alcotest.(check bool) "shedding cannot increase buffer loss" true
    (scale_r.Niu.bits_lost <= settle_r.Niu.bits_lost +. 1e-6)

(* --- Online ?buffer vs the uncontended NIU (unified semantics) --- *)

let prop_online_buffer_matches_niu =
  (* On a path that never denies, the NIU is the Online heuristic with a
     buffer cap and a signalling delay: both drive the same monitor, so
     loss, peak backlog and every slot's rate agree bit for bit. *)
  let gen =
    QCheck.Gen.(
      tup5 (int_range 1 10_000) (int_range 0 48)
        (float_range 50_000. 600_000.)
        (oneof
           [
             oneofl [ 25_000.; 33_333.3; 100_000.; 400_000. ];
             float_range 10_000. 400_000.;
           ])
        bool)
  in
  let print (seed, delay, buffer, g, flush) =
    Printf.sprintf "seed %d, delay %d, buffer %h, granularity %h, flush %b"
      seed delay buffer g flush
  in
  QCheck.Test.make ~name:"matches uncontended NIU" ~count:100
    (QCheck.make ~print gen)
    (fun (seed, delay_slots, buffer, granularity, use_flush_term) ->
      let trace = Rcbr_traffic.Synthetic.star_wars ~frames:1_500 ~seed () in
      let o =
        { Online.default_params with Online.granularity; use_flush_term }
      in
      let tau = Trace.slot_duration trace in
      let first = Trace.frame trace 0 /. tau in
      let initial =
        if first <= 0. then granularity
        else granularity *. Float.ceil (first /. granularity)
      in
      let path =
        Path.create_exn [ Port.create ~capacity:1e12 () ] ~vci:1
          ~initial_rate:initial
      in
      let niu =
        Niu.stream
          { Niu.default_params with Niu.online = o; buffer; delay_slots }
          ~path trace
      in
      let online =
        Online.run_custom ~buffer ~delay_slots o
          ~predictor:(fun ~initial ->
            Rcbr_core.Predictor.ar1 ~eta:o.Online.ar_coefficient ~initial)
          trace
      in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      niu.Niu.failures = 0
      && same online.Online.bits_lost niu.Niu.bits_lost
      && same online.Online.max_backlog niu.Niu.max_backlog
      && Array.for_all2 same
           (Schedule.to_rates online.Online.schedule)
           (Schedule.to_rates niu.Niu.schedule))

let test_online_unbounded_loses_nothing () =
  let r = Online.run Online.default_params trace in
  check_close 1e-12 "no cap, no loss" 0. r.Online.bits_lost

(* --- Faulty call-level simulators --- *)

let multihop_config ?(routes = 1) ?(balance = false) hops =
  let capacity = 8. *. Trace.mean_rate trace in
  {
    Multihop.schedule =
      Rcbr_core.Optimal.solve
        (Rcbr_core.Optimal.default_params ~cost_ratio:3e5 trace)
        trace;
    topology = Rcbr_net.Topology.parallel_routes ~routes ~hops ~capacity;
    transit_calls = 3;
    local_calls_per_link = 4;
    horizon = 600.;
    seed = 5;
    balance;
    service = Rcbr_policy.Service_model.Renegotiate;
  }

let test_multihop_null_faults_identical () =
  (* A plane with no loss and no crashes never draws, whatever its
     fault seed, and the audit only reads: the fault-free run bit for
     bit. *)
  let nc = multihop_config ~routes:2 ~balance:true 3 in
  let a, _ = Multihop.run_net nc Session.no_faults in
  let m, f =
    Multihop.run_net nc
      { Session.no_faults with Session.fault_seed = 9; check_invariants = true }
  in
  Alcotest.(check int) "attempts" a.Multihop.transit_attempts
    m.Multihop.transit_attempts;
  Alcotest.(check int) "denials" a.Multihop.transit_denials
    m.Multihop.transit_denials;
  Alcotest.(check int) "local denials" a.Multihop.local_denials
    m.Multihop.local_denials;
  check_close 1e-12 "utilization" a.Multihop.mean_hop_utilization
    m.Multihop.mean_hop_utilization;
  Alcotest.(check int) "nothing lost" 0 f.Multihop.rm_lost;
  Alcotest.(check int) "nothing retransmitted" 0 f.Multihop.retransmits;
  Alcotest.(check int) "audit clean" 0 f.Multihop.invariant_failures

let test_multihop_lossy_signalling () =
  let fc =
    {
      Session.no_faults with
      Session.rm_drop = 0.2;
      fault_seed = 9;
      check_invariants = true;
    }
  in
  let _, f = Multihop.run_net (multihop_config 3) fc in
  Alcotest.(check bool) "cells lost" true (f.Multihop.rm_lost > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (f.Multihop.retransmits > 0);
  Alcotest.(check int) "demand stays conserved" 0
    f.Multihop.invariant_failures

let test_multihop_crash_denies () =
  (* On one route link ids are hop numbers: hop 1 goes dark. *)
  let fc =
    { Session.no_faults with Session.crashes = [ (1, 50., 300.) ] }
  in
  let m, f = Multihop.run_net (multihop_config 3) fc in
  Alcotest.(check bool) "blackout denies increases" true
    (f.Multihop.crash_denials > 0);
  Alcotest.(check bool) "denials include crash denials" true
    (m.Multihop.transit_denials + m.Multihop.local_denials
    >= f.Multihop.crash_denials)

let mbac_config () =
  let schedule =
    Schedule.create ~fps:24. ~n_slots:480
      [
        { Schedule.start_slot = 0; rate = 300_000. };
        { Schedule.start_slot = 120; rate = 600_000. };
        { Schedule.start_slot = 240; rate = 200_000. };
        { Schedule.start_slot = 360; rate = 400_000. };
      ]
  in
  let capacity = 2e6 in
  let arrival_rate =
    capacity /. (Schedule.mean_rate schedule *. Schedule.duration schedule)
  in
  {
    (Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3
       ~seed:77)
    with
    Mbac.min_windows = 5;
    max_windows = 30;
  }

let test_mbac_null_faults_identical () =
  let cfg = mbac_config () in
  let run faults =
    Mbac.run { cfg with Mbac.faults } ~controller:(Controller.always_admit ())
  in
  let a = run Session.no_faults in
  let b = run { Session.no_faults with Session.fault_seed = 1 } in
  check_close 1e-12 "failure probability" a.Mbac.failure_probability
    b.Mbac.failure_probability;
  check_close 1e-12 "utilization" a.Mbac.utilization b.Mbac.utilization;
  check_close 1e-12 "denial fraction" a.Mbac.denial_fraction
    b.Mbac.denial_fraction;
  Alcotest.(check int) "windows" a.Mbac.windows b.Mbac.windows;
  Alcotest.(check int) "nothing dropped" 0 b.Mbac.signalling_dropped

let test_mbac_lossy_signalling () =
  let cfg = mbac_config () in
  let m =
    Mbac.run
      {
        cfg with
        Mbac.faults =
          {
            Session.no_faults with
            Session.rm_drop = 0.3;
            retx_timeout = 0.1;
            max_retransmits = 3;
            fault_seed = 13;
          };
      }
      ~controller:(Controller.always_admit ())
  in
  Alcotest.(check bool) "cells dropped" true (m.Mbac.signalling_dropped > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (m.Mbac.signalling_retransmits > 0);
  Alcotest.(check bool) "failure probability still a fraction" true
    (m.Mbac.failure_probability >= 0. && m.Mbac.failure_probability <= 1.)

let () =
  Alcotest.run "rcbr_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "null plan" `Quick test_plan_null;
          Alcotest.test_case "validation" `Quick test_plan_validate_rejects;
        ] );
      ( "injector",
        [
          Alcotest.test_case "null delivers" `Quick test_injector_null_delivers;
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "flags breakage" `Quick
            test_invariant_flags_breakage;
        ] );
      ( "port",
        [
          Alcotest.test_case "idempotent requests" `Quick
            test_port_request_idempotent;
          Alcotest.test_case "idempotent rollback" `Quick
            test_port_rollback_idempotent;
          Alcotest.test_case "crash/recover" `Quick test_port_crash_recover;
        ] );
      ( "niu",
        [
          Alcotest.test_case "null plan bit-identical" `Quick
            test_niu_null_plan_bit_identical;
          Alcotest.test_case "reliable golden digests" `Quick
            test_niu_golden_digests;
          Alcotest.test_case "faulty golden digests" `Quick
            test_niu_fault_golden_digests;
          Alcotest.test_case "null plan of any length" `Quick
            test_niu_null_plan_any_length;
          Alcotest.test_case "lossy plan of wrong length" `Quick
            test_niu_lossy_plan_wrong_length;
          Alcotest.test_case "lossy plan needs timeout > delay" `Quick
            test_niu_lossy_plan_needs_timeout;
          Alcotest.test_case "null plan ignores timeout" `Quick
            test_niu_null_plan_ignores_timeout;
          Alcotest.test_case "lossy three-hop" `Quick test_niu_lossy_three_hop;
          Alcotest.test_case "crash/recovery/resync" `Quick
            test_niu_crash_recovery_resync;
          Alcotest.test_case "degradation policies" `Quick
            test_niu_degradation_policies;
        ] );
      ( "online-buffer",
        [
          QCheck_alcotest.to_alcotest prop_online_buffer_matches_niu;
          Alcotest.test_case "unbounded loses nothing" `Quick
            test_online_unbounded_loses_nothing;
        ] );
      ( "multihop",
        [
          Alcotest.test_case "null faults identical" `Quick
            test_multihop_null_faults_identical;
          Alcotest.test_case "lossy signalling" `Quick
            test_multihop_lossy_signalling;
          Alcotest.test_case "crash blackout" `Quick test_multihop_crash_denies;
        ] );
      ( "mbac",
        [
          Alcotest.test_case "null faults identical" `Quick
            test_mbac_null_faults_identical;
          Alcotest.test_case "lossy signalling" `Quick
            test_mbac_lossy_signalling;
        ] );
    ]
