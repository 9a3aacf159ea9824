(* Unit tests for Rcbr_signal: RM cells, ports, multi-hop paths and
   signaling-latency effects. *)

module Rm_cell = Rcbr_signal.Rm_cell
module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path
module Latency = Rcbr_signal.Latency
module Schedule = Rcbr_core.Schedule
module Injector = Rcbr_fault.Injector

let check_close eps = Alcotest.(check (float eps))

(* --- Port --- *)

(* A delta cell asks for its own change; a resync for the distance from
   the port's belief, so it moves the reservation by that distance and
   is admitted on it. *)
let test_port_payload_change () =
  let p = Port.create ~capacity:200. () in
  ignore (Port.process p (Rm_cell.delta ~vci:3 100.));
  ignore (Port.process p (Rm_cell.delta ~vci:4 50.));
  Alcotest.(check bool) "delta granted" true
    (Port.process p (Rm_cell.delta ~vci:3 5.) = `Granted);
  check_close 1e-12 "delta moves the belief" 105. (Port.vci_rate p 3);
  check_close 1e-12 "delta moves the reservation" 155. (Port.reserved p);
  Alcotest.(check bool) "resync down granted" true
    (Port.process p (Rm_cell.resync ~vci:3 80.) = `Granted);
  check_close 1e-12 "resync sets the belief" 80. (Port.vci_rate p 3);
  check_close 1e-12 "resync moves the reservation by -25" 130. (Port.reserved p);
  (* 80 -> 150 asks for +70: 200 fits; 150 -> 160 asks for +10 more *)
  Alcotest.(check bool) "resync up to capacity granted" true
    (Port.process p (Rm_cell.resync ~vci:3 150.) = `Granted);
  check_close 1e-12 "full" 200. (Port.reserved p);
  Alcotest.(check bool) "resync past capacity denied" true
    (Port.process p (Rm_cell.resync ~vci:3 160.) = `Denied);
  check_close 1e-12 "denied resync leaves the belief" 150. (Port.vci_rate p 3);
  Alcotest.(check bool) "resync of an unknown vci asks for its rate" true
    (Port.process p (Rm_cell.resync ~vci:5 1.) = `Denied)

let test_port_grant_deny () =
  let p = Port.create ~capacity:100. () in
  Alcotest.(check bool) "grant" true (Port.process p (Rm_cell.delta ~vci:1 60.) = `Granted);
  check_close 1e-12 "reserved" 60. (Port.reserved p);
  Alcotest.(check bool) "deny over capacity" true
    (Port.process p (Rm_cell.delta ~vci:2 50.) = `Denied);
  check_close 1e-12 "reserved unchanged on deny" 60. (Port.reserved p);
  Alcotest.(check bool) "exact fit" true
    (Port.process p (Rm_cell.delta ~vci:2 40.) = `Granted);
  (* Decreases always succeed. *)
  Alcotest.(check bool) "decrease" true
    (Port.process p (Rm_cell.delta ~vci:1 (-30.)) = `Granted);
  check_close 1e-12 "after decrease" 70. (Port.reserved p)

let test_port_vci_tracking () =
  let p = Port.create ~capacity:100. () in
  ignore (Port.process p (Rm_cell.delta ~vci:7 30.));
  check_close 1e-12 "tracked" 30. (Port.vci_rate p 7);
  check_close 1e-12 "unknown vci" 0. (Port.vci_rate p 8);
  ignore (Port.process p (Rm_cell.delta ~vci:7 10.));
  check_close 1e-12 "accumulated" 40. (Port.vci_rate p 7);
  Port.release p ~vci:7;
  check_close 1e-12 "released" 0. (Port.reserved p);
  check_close 1e-12 "forgotten" 0. (Port.vci_rate p 7)

let test_port_drift_and_resync () =
  (* Lose a delta cell: the switch belief drifts; a resync repairs it. *)
  let p = Port.create ~capacity:1000. () in
  ignore (Port.process p (Rm_cell.delta ~vci:1 100.));
  (* Source renegotiates down to 40 but the cell is lost: switch still
     believes 100 while the source sends at 40. *)
  check_close 1e-12 "drift" 60. (Port.drift p ~actual:40.);
  (* Periodic resync with the absolute rate repairs the belief. *)
  ignore (Port.process p (Rm_cell.resync ~vci:1 40.));
  check_close 1e-12 "repaired" 0. (Port.drift p ~actual:40.);
  check_close 1e-12 "reserved tracks" 40. (Port.reserved p)

let test_port_reserved_never_negative () =
  let p = Port.create ~capacity:100. () in
  ignore (Port.process p (Rm_cell.delta ~vci:1 (-50.)));
  check_close 1e-12 "clamped" 0. (Port.reserved p)

(* --- Path --- *)

(* One request over a lossless signalling plane. *)
let renegotiate path target =
  let inj = Injector.create (Rcbr_fault.Plan.null ~hops:(Path.hops path)) in
  Path.transmit path ~inj (Path.request path target)

let three_ports () =
  [ Port.create ~capacity:100. (); Port.create ~capacity:50. ();
    Port.create ~capacity:100. () ]

let test_path_setup_and_teardown () =
  let ports = three_ports () in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:30. in
  Alcotest.(check int) "hops" 3 (Path.hops path);
  check_close 1e-12 "rate" 30. (Path.rate path);
  List.iter (fun p -> check_close 1e-12 "reserved" 30. (Port.reserved p)) ports;
  Path.teardown path;
  List.iter (fun p -> check_close 1e-12 "freed" 0. (Port.reserved p)) ports

let test_path_setup_fails_cleanly () =
  let ports = three_ports () in
  (* Typed admission result: the middle hop (capacity 50) is the one
     that cannot fit 70. *)
  (match Path.create ports ~vci:1 ~initial_rate:70. with
  | Error (`Denied_at 1) -> ()
  | Error (`Denied_at i) -> Alcotest.failf "denied at unexpected hop %d" i
  | Ok _ -> Alcotest.fail "setup should have been denied");
  (* Nothing may remain reserved after the failed setup. *)
  List.iter (fun p -> check_close 1e-12 "rolled back" 0. (Port.reserved p)) ports;
  (* The raising convenience wrapper agrees. *)
  Alcotest.(check bool) "create_exn raises" true
    (try ignore (Path.create_exn ports ~vci:1 ~initial_rate:70.); false
     with Failure _ -> true);
  List.iter (fun p -> check_close 1e-12 "still clean" 0. (Port.reserved p)) ports

let test_path_renegotiate () =
  let ports = three_ports () in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:30. in
  Alcotest.(check bool) "increase ok" true (renegotiate path 45. = `Granted 0);
  check_close 1e-12 "new rate" 45. (Path.rate path);
  (* Middle hop (capacity 50) denies 60. *)
  (match renegotiate path 60. with
  | `Denied (1, _) -> ()
  | `Denied (i, _) -> Alcotest.failf "denied at unexpected hop %d" i
  | `Granted _ | `Lost -> Alcotest.fail "should be denied");
  check_close 1e-12 "rate kept on denial" 45. (Path.rate path);
  (* First hop must have been rolled back. *)
  List.iter
    (fun p -> check_close 1e-12 "consistent bookkeeping" 45. (Port.reserved p))
    ports;
  Alcotest.(check bool) "decrease always ok" true (renegotiate path 10. = `Granted 0);
  List.iter (fun p -> check_close 1e-12 "after decrease" 10. (Port.reserved p)) ports

let test_path_contention () =
  (* Two connections on a shared middle hop: the second one's increase
     is limited by what the first left. *)
  let shared = Port.create ~capacity:100. () in
  let a = Path.create_exn [ shared ] ~vci:1 ~initial_rate:60. in
  let b = Path.create_exn [ shared ] ~vci:2 ~initial_rate:30. in
  Alcotest.(check bool) "b cannot take 50" true (renegotiate b 50. <> `Granted 0);
  Alcotest.(check bool) "a releases" true (renegotiate a 20. = `Granted 0);
  Alcotest.(check bool) "now b fits" true (renegotiate b 50. = `Granted 0);
  check_close 1e-12 "shared reserved" 70. (Port.reserved shared)

let test_path_setup_across_down_port () =
  (* A port that is down swallows the setup cell: admission fails at that
     hop, and the hop before it gives back what it had granted. *)
  let ports = three_ports () in
  ignore (Port.process (List.hd ports) (Rm_cell.delta ~vci:9 20.));
  Port.crash (List.nth ports 1);
  (* The hop past the down one is never reached, so the failed setup
     must not touch what it holds. *)
  let last = List.nth ports 2 in
  ignore (Port.process last (Rm_cell.delta ~vci:1 5.));
  (match Path.create ports ~vci:1 ~initial_rate:30. with
  | Error (`Denied_at 1) -> ()
  | Error (`Denied_at i) -> Alcotest.failf "denied at unexpected hop %d" i
  | Ok _ -> Alcotest.fail "setup across a down port should fail");
  check_close 1e-12 "first hop released" 20. (Port.reserved (List.hd ports));
  check_close 1e-12 "VCI forgotten" 0. (Port.vci_rate (List.hd ports) 1);
  check_close 1e-12 "unreached hop untouched" 5. (Port.vci_rate last 1)

let test_transmit_allocation () =
  (* The hop walk allocates nothing per hop, and the port computes a
     cell's change from its belief in place and updates its request
     state, believed rate and reservation in place: over a lossless
     plane a request costs the same words on 3 hops as on 1 (22 with
     OCaml 5.1).  A float boxed per hop would add 2 words per hop.  The
     slope between 1 and 3 hops leaves out the per-request cells and
     answer; it is a whole number of words. *)
  let words_per_request hops =
    let ports = List.init hops (fun _ -> Port.create ~capacity:1e9 ()) in
    let path = Path.create_exn ports ~vci:1 ~initial_rate:1e5 in
    let inj = Injector.create (Rcbr_fault.Plan.null ~hops) in
    let requests = 10_000 and granted = ref 0 in
    let before = Gc.minor_words () in
    for i = 1 to requests do
      let target = if i land 1 = 0 then 1e5 else 2e5 in
      match Path.transmit path ~inj (Path.request path target) with
      | `Granted _ -> incr granted
      | `Denied _ | `Lost -> ()
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int requests in
    Alcotest.(check int) "every request granted" requests !granted;
    words
  in
  let one = words_per_request 1 and three = words_per_request 3 in
  let per_hop = (three -. one) /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per hop (%.1f per request on 1 hop, \
                     %.1f on 3)"
       per_hop one three)
    true (per_hop < 0.5)

(* --- Property: renegotiation rollback conserves bandwidth --- *)

module Invariant = Rcbr_fault.Invariant

let prop_renegotiate_conserves =
  (* Random interleavings of all-or-nothing renegotiations by two
     connections sharing a 3-hop path (middle hop is the bottleneck).
     After every operation — grant, denial with rollback, teardown —
     each port's aggregate must equal its per-VCI sum, stay within
     capacity, and agree with every other hop. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60) (pair (int_range 0 1) (float_range 0. 120.)))
  in
  QCheck.Test.make ~name:"renegotiate conserves reserved bandwidth" ~count:200
    (QCheck.make gen) (fun ops ->
      let ports = three_ports () in
      let a = Path.create_exn ports ~vci:1 ~initial_rate:10. in
      let b = Path.create_exn ports ~vci:2 ~initial_rate:10. in
      let paths = [| a; b |] in
      let ok = ref true in
      let audit () =
        let views = List.mapi (fun i p -> Port.view p ~index:i) ports in
        if Invariant.check (Array.of_list views) <> [] then ok := false
      in
      List.iter
        (fun (i, rate) ->
          (match renegotiate paths.(i) rate with
          | `Granted _ | `Denied _ -> ()
          | `Lost -> ok := false);
          audit ();
          let r0 = Port.reserved (List.hd ports) in
          List.iter
            (fun p ->
              if Float.abs (Port.reserved p -. r0) > 1e-6 then ok := false)
            ports)
        ops;
      Path.teardown a;
      Path.teardown b;
      audit ();
      List.iter (fun p -> if Port.reserved p > 1e-9 then ok := false) ports;
      !ok)

let prop_setup_denial_rolls_back =
  (* A mid-path denial during Path.create must release every hop that
     had already granted the setup: each port's free capacity (and its
     per-VCI table) is exactly what it was before the attempt.  Random
     per-hop capacities and pre-existing load make the denial hop (if
     any) land anywhere along the path. *)
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 8) (float_range 10. 100.))
        (float_range 0. 80.) (float_range 1. 120.))
  in
  QCheck.Test.make ~name:"mid-path setup denial rolls back every hop"
    ~count:300 (QCheck.make gen) (fun (capacities, preload, rate) ->
      let ports = List.map (fun c -> Port.create ~capacity:c ()) capacities in
      (* Background connection where it fits, so ports start uneven. *)
      List.iter
        (fun p ->
          ignore (Port.process p (Rm_cell.delta ~vci:9 preload) : [ `Granted | `Denied ]))
        ports;
      let before = List.map (fun p -> (Port.reserved p, Port.vci_rate p 1)) ports in
      match Path.create ports ~vci:1 ~initial_rate:rate with
      | Error (`Denied_at hop) ->
          (* The denying hop really could not fit the rate... *)
          let denier = List.nth ports hop in
          Port.capacity denier -. Port.reserved denier < rate
          (* ...and no hop kept any trace of the attempt. *)
          && List.for_all2
               (fun p (r, v) ->
                 Float.abs (Port.reserved p -. r) <= 1e-9
                 && Float.abs (Port.vci_rate p 1 -. v) <= 1e-9)
               ports before
      | Ok path ->
          let granted =
            List.for_all2
              (fun p (r, _) -> Float.abs (Port.reserved p -. (r +. rate)) <= 1e-9)
              ports before
          in
          Path.teardown path;
          granted
          && List.for_all2
               (fun p (r, _) -> Float.abs (Port.reserved p -. r) <= 1e-9)
               ports before)

(* --- Latency --- *)

let sched () =
  Schedule.create ~fps:1. ~n_slots:10
    [
      { Schedule.start_slot = 0; rate = 10. };
      { Schedule.start_slot = 3; rate = 30. };
      { Schedule.start_slot = 7; rate = 5. };
    ]

let test_delay_shifts_changes () =
  let d = Latency.delay (sched ()) ~seconds:2. in
  check_close 1e-12 "initial unchanged" 10. (Schedule.rate_at d 0);
  check_close 1e-12 "still old at 4" 10. (Schedule.rate_at d 4);
  check_close 1e-12 "new at 5" 30. (Schedule.rate_at d 5);
  check_close 1e-12 "second change at 9" 5. (Schedule.rate_at d 9)

let test_delay_zero_identity () =
  let s = sched () in
  let d = Latency.delay s ~seconds:0. in
  for i = 0 to 9 do
    check_close 1e-12 "identity" (Schedule.rate_at s i) (Schedule.rate_at d i)
  done

let test_delay_drops_past_end () =
  let d = Latency.delay (sched ()) ~seconds:5. in
  (* The change at slot 7 lands at 12 > 9 and disappears. *)
  Alcotest.(check int) "one change left" 1 (Schedule.n_renegotiations d);
  check_close 1e-12 "tail keeps previous rate" 30. (Schedule.rate_at d 9)

let test_anticipate () =
  let a = Latency.anticipate (sched ()) ~seconds:2. in
  check_close 1e-12 "change pulled to 1" 30. (Schedule.rate_at a 1);
  check_close 1e-12 "second pulled to 5" 5. (Schedule.rate_at a 5);
  (* Anticipating all the way to slot 0 overrides the initial rate. *)
  let a0 = Latency.anticipate (sched ()) ~seconds:3. in
  check_close 1e-12 "initial overridden" 30. (Schedule.rate_at a0 0)

let test_align_to_refresh () =
  let r = Latency.align_to_refresh (sched ()) ~period_s:4. in
  (* Change requested at slot 3 becomes effective at slot 4; change at 7
     becomes effective at 8. *)
  check_close 1e-12 "before refresh" 10. (Schedule.rate_at r 3);
  check_close 1e-12 "at refresh" 30. (Schedule.rate_at r 4);
  check_close 1e-12 "second at 8" 5. (Schedule.rate_at r 8)

let test_anticipation_compensates () =
  (* Offline sources cancel the signaling latency by anticipating:
     delay(anticipate(s)) has no rate-increase lateness. *)
  let s = sched () in
  let compensated = Latency.delay (Latency.anticipate s ~seconds:2.) ~seconds:2. in
  for i = 0 to 9 do
    check_close 1e-12 "round trip" (Schedule.rate_at s i)
      (Schedule.rate_at compensated i)
  done

let () =
  Alcotest.run "rcbr_signal"
    [
      ( "port",
        [
          Alcotest.test_case "payload rate change" `Quick
            test_port_payload_change;
          Alcotest.test_case "grant/deny" `Quick test_port_grant_deny;
          Alcotest.test_case "vci tracking" `Quick test_port_vci_tracking;
          Alcotest.test_case "drift and resync" `Quick test_port_drift_and_resync;
          Alcotest.test_case "never negative" `Quick
            test_port_reserved_never_negative;
        ] );
      ( "path",
        [
          Alcotest.test_case "setup/teardown" `Quick test_path_setup_and_teardown;
          Alcotest.test_case "setup failure" `Quick test_path_setup_fails_cleanly;
          Alcotest.test_case "setup across a down port" `Quick
            test_path_setup_across_down_port;
          Alcotest.test_case "renegotiate" `Quick test_path_renegotiate;
          Alcotest.test_case "contention" `Quick test_path_contention;
          Alcotest.test_case "transmit allocation" `Quick
            test_transmit_allocation;
          QCheck_alcotest.to_alcotest prop_renegotiate_conserves;
          QCheck_alcotest.to_alcotest prop_setup_denial_rolls_back;
        ] );
      ( "latency",
        [
          Alcotest.test_case "delay shifts" `Quick test_delay_shifts_changes;
          Alcotest.test_case "zero delay identity" `Quick test_delay_zero_identity;
          Alcotest.test_case "drops past end" `Quick test_delay_drops_past_end;
          Alcotest.test_case "anticipate" `Quick test_anticipate;
          Alcotest.test_case "refresh alignment" `Quick test_align_to_refresh;
          Alcotest.test_case "anticipation compensates" `Quick
            test_anticipation_compensates;
        ] );
    ]
