(* Tests for Rcbr_wire: the codec inversion pair (round-trip + totality
   under byte fuzz), stream framing under arbitrary chunking, mangler
   determinism, switchd dispatch semantics (idempotent request ids,
   denial taxonomy, drain), and the loadgen's seed-pure pieces. *)

module Codec = Rcbr_wire.Codec
module Frame = Rcbr_wire.Frame
module Mangle = Rcbr_wire.Mangle
module Switchd = Rcbr_wire.Switchd
module Loadgen = Rcbr_wire.Loadgen
module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Plan = Rcbr_fault.Plan
module Controller = Rcbr_admission.Controller
module Rng = Rcbr_util.Rng

let check_exact = Alcotest.(check (float 0.))

(* --- generators ------------------------------------------------------ *)

let gen_msg : Codec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let id = int_range 0 ((1 lsl 32) - 1) in
  let rate = float_range 0. 1e9 in
  let any_rate = float_range (-1e9) 1e9 in
  let route = array_size (int_range 1 6) (int_range 0 65535) in
  let reason =
    oneofl
      [
        Codec.Capacity;
        Codec.Blackout;
        Codec.Unknown_call;
        Codec.Duplicate_call;
        Codec.Bad_route;
        Codec.Draining;
        Codec.Downgraded;
      ]
  in
  oneof
    [
      map2 (fun vci delta -> Codec.Delta { vci; delta }) id any_rate;
      map2 (fun vci rate -> Codec.Resync { vci; rate }) id rate;
      (let setup req call route transit rate =
         Codec.Setup { req; call; route; transit; rate }
       in
       setup <$> id <*> id <*> route <*> bool <*> rate);
      (let reneg req call rate = Codec.Renegotiate { req; call; rate } in
       reneg <$> id <*> id <*> rate);
      map2 (fun req call -> Codec.Teardown { req; call }) id id;
      map2 (fun req applied -> Codec.Ack { req; applied }) id rate;
      map2 (fun req reason -> Codec.Deny { req; reason }) id reason;
      map (fun req -> Codec.Audit_request { req }) id;
      (let reply req sessions violations demand =
         Codec.Audit_reply { req; sessions; violations; demand }
       in
       reply <$> id <*> id <*> id <*> any_rate);
    ]

(* Structural equality with floats compared by their IEEE-754 bits: the
   codec moves bits, so round trips are checked bit for bit. *)
let msg_equal a b =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Codec.Delta a, Codec.Delta b -> a.vci = b.vci && feq a.delta b.delta
  | Codec.Resync a, Codec.Resync b -> a.vci = b.vci && feq a.rate b.rate
  | Codec.Setup a, Codec.Setup b ->
      a.req = b.req && a.call = b.call && a.transit = b.transit
      && feq a.rate b.rate && a.route = b.route
  | Codec.Renegotiate a, Codec.Renegotiate b ->
      a.req = b.req && a.call = b.call && feq a.rate b.rate
  | Codec.Teardown a, Codec.Teardown b -> a.req = b.req && a.call = b.call
  | Codec.Ack a, Codec.Ack b -> a.req = b.req && feq a.applied b.applied
  | Codec.Deny a, Codec.Deny b -> a.req = b.req && a.reason = b.reason
  | Codec.Audit_request a, Codec.Audit_request b -> a.req = b.req
  | Codec.Audit_reply a, Codec.Audit_reply b ->
      a.req = b.req && a.sessions = b.sessions && a.violations = b.violations
      && feq a.demand b.demand
  | _ -> false

(* A message's payload: its frame without the length prefix. *)
let payload m =
  let f = Codec.frame m in
  String.sub f 4 (String.length f - 4)

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* Failure messages show a message by its frame bytes, in hex. *)
let pp_msg ppf m =
  match Codec.frame m with
  | bytes -> Format.pp_print_string ppf (hex bytes)
  | exception Invalid_argument _ -> Format.pp_print_string ppf "<invalid>"

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" pp_msg) gen_msg

(* --- codec: inversion pair ------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode m) = Ok m" ~count:1000 arb_msg
    (fun m ->
      match Codec.decode (payload m) with
      | Ok m' -> msg_equal m m'
      | Error _ -> false)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame = u32 length prefix + encode" ~count:300
    arb_msg (fun m ->
      let f = Codec.frame m in
      let n = String.length f - 4 in
      Char.code f.[0] = (n lsr 24) land 0xff
      && Char.code f.[1] = (n lsr 16) land 0xff
      && Char.code f.[2] = (n lsr 8) land 0xff
      && Char.code f.[3] = n land 0xff
      && Codec.decode (String.sub f 4 n) |> Result.is_ok)

(* Totality: decode must return (not raise) on anything.  10k arbitrary
   buffers, every truncation of valid encodings, and single bit flips —
   the seeded generator makes failures reproducible. *)
let test_decode_total_fuzz () =
  let rng = Rng.create 0xF00D in
  let decode_must_return buf =
    match Codec.decode buf with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode raised %s on %S" (Printexc.to_string e) buf
  in
  (* arbitrary buffers *)
  for _ = 1 to 10_000 do
    let len = Rng.int rng 64 in
    decode_must_return (String.init len (fun _ -> Char.chr (Rng.int rng 256)))
  done;
  (* every proper prefix of a valid encoding must be a typed Error *)
  let samples =
    [
      Codec.Delta { vci = 7; delta = -125.5 };
      Codec.Resync { vci = 0xFFFF_FFFF; rate = 0. };
      Codec.Setup
        { req = 1; call = 2; route = [| 0; 1; 2 |]; transit = true; rate = 1e6 };
      Codec.Renegotiate { req = 3; call = 2; rate = 2.5e5 };
      Codec.Teardown { req = 4; call = 2 };
      Codec.Ack { req = 5; applied = 1e6 };
      Codec.Deny { req = 6; reason = Codec.Draining };
      Codec.Audit_request { req = 7 };
      Codec.Audit_reply { req = 8; sessions = 3; violations = 0; demand = -0.5 };
    ]
  in
  List.iter
    (fun m ->
      let buf = payload m in
      for cut = 0 to String.length buf - 1 do
        match Codec.decode (String.sub buf 0 cut) with
        | Ok got ->
            Alcotest.failf "prefix %d of %a decoded Ok as %a" cut pp_msg m
              pp_msg got
        | Error _ -> ()
        | exception e ->
            Alcotest.failf "decode raised %s on a prefix of %a"
              (Printexc.to_string e) pp_msg m
      done;
      (* trailing garbage must be rejected, not silently dropped *)
      (match Codec.decode (buf ^ "\x00") with
      | Error (Codec.Trailing _) -> ()
      | Ok _ | Error _ -> Alcotest.failf "trailing byte not flagged on %a" pp_msg m);
      (* single bit flips: decode returns, whatever the verdict *)
      for _ = 1 to 200 do
        let byte = Rng.int rng (String.length buf) in
        let bit = Rng.int rng 8 in
        let b = Bytes.of_string buf in
        Bytes.set b byte (Char.chr (Char.code buf.[byte] lxor (1 lsl bit)));
        decode_must_return (Bytes.to_string b)
      done)
    samples

(* The wire bytes themselves, pinned: one frame per constructor plus a
   3-hop setup, as hex.  A rewritten writer must reproduce them byte for
   byte, and each payload must decode back to its message. *)
let golden_frames =
  [
    (Codec.Delta { vci = 7; delta = -125.5 }, "0000000d0100000007c05f600000000000");
    ( Codec.Resync { vci = 0xFFFF_FFFF; rate = 4e5 },
      "0000000d02ffffffff41186a0000000000" );
    ( Codec.Setup { req = 1; call = 2; route = [| 5 |]; transit = false; rate = 1e6 },
      "0000001603000000010000000200412e84800000000000010005" );
    ( Codec.Setup
        {
          req = 0x01020304;
          call = 0xA0B0C0D0;
          route = [| 0; 1; 65535 |];
          transit = true;
          rate = 2.5e5;
        },
      "0000001a0301020304a0b0c0d001410e848000000000000300000001ffff" );
    ( Codec.Renegotiate { req = 3; call = 2; rate = 2.5e5 },
      "00000011040000000300000002410e848000000000" );
    (Codec.Teardown { req = 4; call = 2 }, "00000009050000000400000002");
    (Codec.Ack { req = 5; applied = 1e6 }, "0000000d0600000005412e848000000000");
    (Codec.Deny { req = 6; reason = Codec.Draining }, "00000006070000000605");
    (Codec.Audit_request { req = 7 }, "000000050800000007");
    ( Codec.Audit_reply { req = 8; sessions = 3; violations = 0; demand = -0.5 },
      "0000001509000000080000000300000000bfe0000000000000" );
  ]

let test_golden_frames () =
  List.iter
    (fun (m, want) ->
      let f = Codec.frame m in
      Alcotest.(check string) "frame bytes" want (hex f);
      match Codec.decode (payload m) with
      | Ok m' when msg_equal m m' -> ()
      | _ -> Alcotest.failf "golden frame %s does not decode back" want)
    golden_frames

let test_codec_errors_typed () =
  let expect name want got =
    Alcotest.(check string) name want (Codec.error_to_string got)
  in
  ignore expect;
  (match Codec.decode "" with
  | Error Codec.Empty -> ()
  | _ -> Alcotest.fail "empty buffer not Empty");
  (match Codec.decode "\xFF" with
  | Error (Codec.Bad_tag 0xFF) -> ()
  | _ -> Alcotest.fail "unknown tag not Bad_tag");
  (* a Resync whose rate bits are a NaN must be rejected as Bad_rate *)
  let nan_resync =
    let buf = Bytes.of_string (payload (Codec.Resync { vci = 1; rate = 1. })) in
    Bytes.set_int64_be buf 5 (Int64.bits_of_float Float.nan);
    Bytes.to_string buf
  in
  (match Codec.decode nan_resync with
  | Error (Codec.Bad_rate _) -> ()
  | _ -> Alcotest.fail "NaN rate not Bad_rate");
  (* frame refuses what decode would refuse *)
  Alcotest.(check bool) "validate flags negative resync" true
    (Codec.validate (Codec.Resync { vci = 1; rate = -1. }) <> None);
  (match Codec.frame (Codec.Resync { vci = 1; rate = -1. }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frame accepted a negative resync rate")

(* --- framing --------------------------------------------------------- *)

(* Any chunking of a frame stream yields the same message sequence. *)
let test_reader_arbitrary_boundaries () =
  let rng = Rng.create 0xBEEF in
  let msgs =
    [
      Codec.Setup
        { req = 0; call = 1; route = [| 0 |]; transit = false; rate = 5e5 };
      Codec.Delta { vci = 1; delta = -125.0 };
      Codec.Ack { req = 0; applied = 5e5 };
      Codec.Audit_request { req = 1 };
      Codec.Resync { vci = 1; rate = 4e5 };
      Codec.Teardown { req = 2; call = 1 };
    ]
  in
  let stream = String.concat "" (List.map Codec.frame msgs) in
  for _trial = 1 to 200 do
    let reader = Frame.Reader.create () in
    let got = ref [] in
    let pump () =
      let rec go () =
        match Frame.Reader.next reader with
        | `Msg m ->
            got := m :: !got;
            go ()
        | `Error e -> Alcotest.failf "decode error %a" Codec.pp_error e
        | `Fatal e -> Alcotest.failf "fatal %a" Codec.pp_error e
        | `Await -> ()
      in
      go ()
    in
    let n = String.length stream in
    let pos = ref 0 in
    while !pos < n do
      let chunk = 1 + Rng.int rng 9 in
      let chunk = min chunk (n - !pos) in
      Frame.Reader.feed_string reader (String.sub stream !pos chunk);
      pos := !pos + chunk;
      pump ()
    done;
    let got = List.rev !got in
    Alcotest.(check int) "all messages out" (List.length msgs) (List.length got);
    List.iter2
      (fun want have ->
        Alcotest.(check bool) "same message" true (msg_equal want have))
      msgs got
  done

let test_reader_recoverable_and_fatal () =
  let good = Codec.frame (Codec.Audit_request { req = 42 }) in
  (* flip a payload bit of the middle frame; framing survives *)
  let bad =
    let b = Bytes.of_string good in
    Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 0x40));
    Bytes.to_string b
  in
  let reader = Frame.Reader.create () in
  Frame.Reader.feed_string reader (good ^ bad ^ good);
  (match Frame.Reader.next reader with
  | `Msg m ->
      Alcotest.(check bool) "first frame ok" true
        (msg_equal m (Codec.Audit_request { req = 42 }))
  | _ -> Alcotest.fail "expected first message");
  (match Frame.Reader.next reader with
  | `Error _ -> ()
  | _ -> Alcotest.fail "expected recoverable decode error");
  (match Frame.Reader.next reader with
  | `Msg _ -> ()
  | _ -> Alcotest.fail "stream did not stay in sync");
  (match Frame.Reader.next reader with
  | `Await -> ()
  | _ -> Alcotest.fail "expected Await at end");
  (* an oversized length prefix poisons the reader forever *)
  let reader = Frame.Reader.create () in
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (Codec.max_frame + 1));
  Frame.Reader.feed_string reader (Bytes.to_string huge);
  (match Frame.Reader.next reader with
  | `Fatal (Codec.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized prefix not fatal");
  Frame.Reader.feed_string reader good;
  match Frame.Reader.next reader with
  | `Fatal _ -> ()
  | _ -> Alcotest.fail "poisoned reader answered non-fatal"

(* --- mangler --------------------------------------------------------- *)

let test_mangle_deterministic () =
  let link =
    Plan.lossy ~drop:0.2 ~duplicate:0.1 ~reorder:0.1 ~delay:0.1 ~corrupt:0.2
      ~max_extra_slots:3 ()
  in
  let frames =
    List.init 200 (fun i ->
        Codec.frame (Codec.Resync { vci = i; rate = float_of_int i }))
  in
  let run () =
    let m = Mangle.create ~seed:77 link in
    let out = List.concat_map (fun f -> Mangle.send m f) frames in
    (out @ Mangle.flush m, Mangle.stats m)
  in
  let out_a, stats_a = run () in
  let out_b, stats_b = run () in
  Alcotest.(check bool) "same seed, same byte stream" true (out_a = out_b);
  Alcotest.(check bool) "same stats" true (stats_a = stats_b);
  Alcotest.(check int) "every send counted" 200 stats_a.Mangle.sent;
  (* nothing is lost except drops: sent - dropped + duplicated frames out *)
  Alcotest.(check int) "conservation of frames"
    (stats_a.Mangle.sent - stats_a.Mangle.dropped + stats_a.Mangle.duplicated)
    (List.length out_a);
  Alcotest.(check bool) "faults actually exercised" true
    (stats_a.Mangle.dropped > 0 && stats_a.Mangle.corrupted > 0);
  (* corruption spares the length prefix, so framing always survives *)
  let m = Mangle.create ~seed:3 (Plan.lossy ~corrupt:1.0 ()) in
  List.iter
    (fun f ->
      List.iter
        (fun f' ->
          Alcotest.(check int) "length preserved" (String.length f)
            (String.length f');
          Alcotest.(check string) "prefix untouched" (String.sub f 0 4)
            (String.sub f' 0 4);
          Alcotest.(check bool) "payload damaged" true (f <> f'))
        (Mangle.send m f))
    frames

(* --- switchd dispatch ------------------------------------------------ *)

let mk_switch () =
  Switchd.create (Switchd.default_config (Topology.single_link ~capacity:1e6))

let expect_reply t conn ~now msg =
  match Switchd.handle t conn ~now msg with
  | Some reply -> reply
  | None -> Alcotest.failf "no reply to %a" pp_msg msg

let test_switchd_setup_and_idempotency () =
  let t = mk_switch () in
  let conn = Switchd.connect t in
  let setup =
    Codec.Setup { req = 1; call = 7; route = [| 0 |]; transit = false; rate = 4e5 }
  in
  (match expect_reply t conn ~now:0. setup with
  | Codec.Ack { req = 1; applied } -> check_exact "applied" 4e5 applied
  | r -> Alcotest.failf "expected Ack, got %a" pp_msg r);
  check_exact "demand accounted" 4e5 (Switchd.links t).(0).Link.acct.demand;
  (* a retransmitted duplicate re-answers from cache without re-applying *)
  (match expect_reply t conn ~now:1. setup with
  | Codec.Ack { req = 1; applied } -> check_exact "cached ack" 4e5 applied
  | r -> Alcotest.failf "expected cached Ack, got %a" pp_msg r);
  check_exact "demand NOT double-applied" 4e5
    (Switchd.links t).(0).Link.acct.demand;
  Alcotest.(check int) "duplicate counted" 1 (Switchd.stats t).Switchd.duplicates;
  Alcotest.(check int) "one setup applied" 1 (Switchd.sessions t);
  (* same call, fresh req: a real duplicate call, denied *)
  (match
     expect_reply t conn ~now:2.
       (Codec.Setup
          { req = 2; call = 7; route = [| 0 |]; transit = false; rate = 1e5 })
   with
  | Codec.Deny { reason = Codec.Duplicate_call; _ } -> ()
  | r -> Alcotest.failf "expected Duplicate_call, got %a" pp_msg r);
  Alcotest.(check int) "audit clean" 0 (Switchd.audit t)

let test_switchd_denials () =
  let t = mk_switch () in
  let conn = Switchd.connect t in
  (match
     expect_reply t conn ~now:0.
       (Codec.Setup
          { req = 1; call = 1; route = [| 9 |]; transit = false; rate = 1e5 })
   with
  | Codec.Deny { reason = Codec.Bad_route; _ } -> ()
  | r -> Alcotest.failf "expected Bad_route, got %a" pp_msg r);
  (match
     expect_reply t conn ~now:0.
       (Codec.Setup
          { req = 2; call = 1; route = [| 0 |]; transit = false; rate = 2e6 })
   with
  | Codec.Deny { reason = Codec.Capacity; _ } -> ()
  | r -> Alcotest.failf "expected Capacity, got %a" pp_msg r);
  (match
     expect_reply t conn ~now:0. (Codec.Renegotiate { req = 3; call = 1; rate = 1. })
   with
  | Codec.Deny { reason = Codec.Unknown_call; _ } -> ()
  | r -> Alcotest.failf "expected Unknown_call, got %a" pp_msg r);
  (match expect_reply t conn ~now:0. (Codec.Teardown { req = 4; call = 1 }) with
  | Codec.Deny { reason = Codec.Unknown_call; _ } -> ()
  | r -> Alcotest.failf "expected Unknown_call teardown, got %a" pp_msg r);
  Alcotest.(check int) "four denials" 4 (Switchd.stats t).Switchd.denials;
  (* reply-typed client traffic is counted and dropped *)
  (match Switchd.handle t conn ~now:0. (Codec.Ack { req = 9; applied = 0. }) with
  | None -> ()
  | Some r -> Alcotest.failf "unexpected reply %a" pp_msg r);
  Alcotest.(check int) "unexpected counted" 1 (Switchd.stats t).Switchd.unexpected

let test_switchd_rm_cells_and_audit () =
  let t = mk_switch () in
  let conn = Switchd.connect t in
  ignore
    (expect_reply t conn ~now:0.
       (Codec.Setup
          { req = 1; call = 3; route = [| 0 |]; transit = false; rate = 5e5 }));
  (* deltas apply with settle semantics, below zero clamps *)
  Alcotest.(check bool) "delta is fire-and-forget" true
    (Switchd.handle t conn ~now:0.1 (Codec.Delta { vci = 3; delta = -6e5 }) = None);
  check_exact "clamped at zero" 0. (Switchd.links t).(0).Link.acct.demand;
  Alcotest.(check int) "underflow counted" 1 (Switchd.stats t).Switchd.underflows;
  ignore (Switchd.handle t conn ~now:0.2 (Codec.Resync { vci = 3; rate = 2e5 }));
  check_exact "resync repairs" 2e5 (Switchd.links t).(0).Link.acct.demand;
  (* stray cells for unknown VCIs are counted, not applied *)
  ignore (Switchd.handle t conn ~now:0.3 (Codec.Delta { vci = 99; delta = 1e5 }));
  Alcotest.(check int) "stray counted" 1 (Switchd.stats t).Switchd.stray_cells;
  check_exact "stray not applied" 2e5 (Switchd.links t).(0).Link.acct.demand;
  (match expect_reply t conn ~now:0.4 (Codec.Audit_request { req = 2 }) with
  | Codec.Audit_reply { sessions = 1; violations = 0; demand; _ } ->
      check_exact "audited demand" 2e5 demand
  | r -> Alcotest.failf "expected clean audit, got %a" pp_msg r)

let test_switchd_drain () =
  let t = mk_switch () in
  let conn = Switchd.connect t in
  ignore
    (expect_reply t conn ~now:0.
       (Codec.Setup
          { req = 1; call = 1; route = [| 0 |]; transit = false; rate = 1e5 }));
  let report = Switchd.drain t in
  Alcotest.(check int) "live session reported" 1 report.Switchd.live_sessions;
  Alcotest.(check int) "conserving at drain" 0 report.Switchd.violations;
  check_exact "drain demand" 1e5 report.Switchd.demand;
  (* draining switches deny new work but still serve existing calls *)
  (match
     expect_reply t conn ~now:1.
       (Codec.Setup
          { req = 2; call = 2; route = [| 0 |]; transit = false; rate = 1e5 })
   with
  | Codec.Deny { reason = Codec.Draining; _ } -> ()
  | r -> Alcotest.failf "expected Draining, got %a" pp_msg r);
  (match expect_reply t conn ~now:2. (Codec.Teardown { req = 3; call = 1 }) with
  | Codec.Ack _ -> ()
  | r -> Alcotest.failf "teardown during drain refused: %a" pp_msg r);
  let final = Switchd.drain t in
  Alcotest.(check int) "empty after teardown" 0 final.Switchd.live_sessions;
  check_exact "no demand left" 0. final.Switchd.demand

(* With an admission controller, the switch tells it about each call by
   store handle, not by wire call id: sparse ids, one far past any
   table a controller could index by id, are admitted, renegotiated
   and torn down, and the controller's population follows. *)
let test_switchd_controller_sparse_ids () =
  let ctl = Controller.memory ~capacity:1e6 ~target:1e-3 in
  let t =
    Switchd.create
      {
        (Switchd.default_config (Topology.single_link ~capacity:1e6)) with
        controller = Some ctl;
      }
  in
  let conn = Switchd.connect t in
  let far = 1 lsl 40 in
  let step ~now msg ~applied ~in_system =
    (match expect_reply t conn ~now msg with
    | Codec.Ack { applied = a; _ } -> check_exact "acked rate" applied a
    | r -> Alcotest.failf "expected Ack, got %a" pp_msg r);
    Alcotest.(check int) "controller population" in_system
      (Controller.n_in_system ctl)
  in
  let setup req call rate =
    Codec.Setup { req; call; route = [| 0 |]; transit = false; rate }
  in
  step ~now:0. (setup 1 3 1e5) ~applied:1e5 ~in_system:1;
  step ~now:1. (setup 2 far 2e5) ~applied:2e5 ~in_system:2;
  step ~now:2. (Codec.Renegotiate { req = 3; call = far; rate = 3e5 })
    ~applied:3e5 ~in_system:2;
  step ~now:3. (Codec.Teardown { req = 4; call = 3 }) ~applied:0. ~in_system:1;
  step ~now:4. (Codec.Teardown { req = 5; call = far }) ~applied:0.
    ~in_system:0;
  Alcotest.(check int) "both setups decided" 2
    (Controller.stats ctl).Controller.decisions;
  Alcotest.(check int) "audit clean" 0 (Switchd.audit t)

(* An RM cell's rate change reaches the admission controller like a
   renegotiation's: a call set up at 100 kb/s under a 1 Mb/s memory
   controller and raised to 900 kb/s, by either message, leaves no room
   for a second call 10 s later.  The link is 10 Mb/s, so only the
   controller can refuse it. *)
let test_switchd_rm_cells_reach_controller () =
  let second_setup raise_msg =
    let ctl = Controller.memory ~capacity:1e6 ~target:1e-3 in
    let t =
      Switchd.create
        {
          (Switchd.default_config (Topology.single_link ~capacity:1e7)) with
          controller = Some ctl;
        }
    in
    let conn = Switchd.connect t in
    let setup req call =
      Codec.Setup { req; call; route = [| 0 |]; transit = false; rate = 1e5 }
    in
    (match expect_reply t conn ~now:0. (setup 1 1) with
    | Codec.Ack _ -> ()
    | r -> Alcotest.failf "first setup refused: %a" pp_msg r);
    ignore (Switchd.handle t conn ~now:0. raise_msg);
    check_exact "link demand raised" 9e5 (Switchd.links t).(0).Link.acct.demand;
    expect_reply t conn ~now:10. (setup 3 2)
  in
  List.iter
    (fun (name, msg) ->
      match second_setup msg with
      | Codec.Deny { reason = Codec.Capacity; _ } -> ()
      | r -> Alcotest.failf "after %s the controller admitted: %a" name pp_msg r)
    [
      ("Renegotiate 9e5", Codec.Renegotiate { req = 2; call = 1; rate = 9e5 });
      ("Delta 8e5", Codec.Delta { vci = 1; delta = 8e5 });
      ("Resync 9e5", Codec.Resync { vci = 1; rate = 9e5 });
    ]

(* A request advances only its own call's route links: a setup, an RM
   delta, a renegotiation and a teardown on route 3 of 16 leave every
   other link untouched, and the route's integrals are the hand sums
   (every product and sum exact in binary). *)
let test_switchd_route_only_advance () =
  let routes = 16 and hops = 4 in
  let t =
    Switchd.create
      (Switchd.default_config
         (Topology.parallel_routes ~routes ~hops ~capacity:1.5e5))
  in
  let conn = Switchd.connect t in
  let route = Array.init hops (fun h -> (3 * hops) + h) in
  let ack ~now msg =
    match expect_reply t conn ~now msg with
    | Codec.Ack _ -> ()
    | r -> Alcotest.failf "expected Ack, got %a" pp_msg r
  in
  ack ~now:1. (Codec.Setup { req = 1; call = 9; route; transit = false; rate = 1e5 });
  (* settle semantics: the delta moves demand past capacity *)
  ignore (Switchd.handle t conn ~now:3. (Codec.Delta { vci = 9; delta = 1e5 }));
  ack ~now:6. (Codec.Renegotiate { req = 2; call = 9; rate = 5e4 });
  ack ~now:10. (Codec.Teardown { req = 3; call = 9 });
  Array.iteri
    (fun id (l : Link.t) ->
      let a = l.Link.acct in
      if Array.mem id route then begin
        check_exact "advanced to the teardown" 10. a.Link.last;
        (* 1e5 over [1,3), 2e5 over [3,6), 5e4 over [6,10) *)
        check_exact "offered bits" 1e6 a.Link.offered_bits;
        check_exact "granted bits" 8.5e5 a.Link.granted_bits;
        check_exact "lost bits" 1.5e5 a.Link.lost_bits;
        check_exact "call-seconds" 9. a.Link.call_seconds;
        check_exact "demand back to 0" 0. a.Link.demand
      end
      else begin
        check_exact (Printf.sprintf "link %d never advanced" id) 0. a.Link.last;
        check_exact "no bits" 0. a.Link.offered_bits
      end)
    (Switchd.links t)

(* [input] and [feed] are one pump: the same op stream, cut at random
   chunk boundaries and fed at random offsets of a reused buffer, gives
   the same reply bytes in the same order. *)
let test_switchd_feed_equals_input () =
  let topology = Topology.parallel_routes ~routes:4 ~hops:2 ~capacity:3e5 in
  let ops =
    Loadgen.storm ~topology ~calls:24 ~rounds:6 ~rate_max:1e5 ~rm_fraction:0.3
      ~seed:17 ~conns:1
  in
  let stream =
    String.concat ""
      (List.mapi (fun req op -> Codec.frame (Loadgen.message_of_op ~req op)) ops.(0))
  in
  let rng = Rng.create 0xFEED in
  for _trial = 1 to 20 do
    let mk () =
      let t = Switchd.create (Switchd.default_config topology) in
      (t, Switchd.connect t)
    in
    let ti, ci = mk () and tf, cf = mk () in
    let by_input = Buffer.create 4096 and by_feed = Buffer.create 4096 in
    let readbuf = Bytes.create 64 in
    let n = String.length stream in
    let pos = ref 0 and now = ref 0. in
    while !pos < n do
      let len = min (1 + Rng.int rng 40) (n - !pos) in
      let off = Rng.int rng (Bytes.length readbuf - len + 1) in
      let chunk = String.sub stream !pos len in
      Bytes.blit_string chunk 0 readbuf off len;
      now := !now +. 0.001;
      (match Switchd.input ti ci ~now:!now chunk with
      | Ok frames -> List.iter (Buffer.add_string by_input) frames
      | Error e -> Alcotest.failf "input: %a" Codec.pp_error e);
      (match
         Switchd.feed tf cf ~now:!now readbuf ~off ~len (Buffer.add_string by_feed)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "feed: %a" Codec.pp_error e);
      pos := !pos + len
    done;
    Alcotest.(check bool) "replies made" true (Buffer.length by_input > 0);
    Alcotest.(check string) "same reply bytes" (Buffer.contents by_input)
      (Buffer.contents by_feed)
  done

(* Minor words per call of [f] over [n] calls.  Floats the callee gets
   come from arrays, so they are boxed already, as on the real path. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The frame path's allocation, pinned at its measured counts (OCaml
   5.1) plus about 10 %.  An Ack frame is its one 17-byte string (4
   words): checking the message allocates nothing.  A warm switch
   serving a renegotiation allocates 72 words: the payload string, the
   decoder's closures, the decoded message and its verdicts, the reply
   and its frame, and one bucket of the reply cache.  A float boxed per
   route link (8 words on this 4-hop route) breaks the pin; a closure
   per request (5) or a copy of the read (4) fits in the headroom. *)
let test_frame_path_allocation () =
  let acks = Array.init 16 (fun i -> Codec.Ack { req = i; applied = float_of_int i }) in
  let ack = words_per_call 10_000 (fun i -> ignore (Codec.frame acks.(i land 15))) in
  Alcotest.(check bool) (Printf.sprintf "Codec.frame Ack: %.2f words" ack) true
    (ack <= 4.4);
  let t =
    Switchd.create
      (Switchd.default_config
         (Topology.parallel_routes ~routes:16 ~hops:4 ~capacity:1e9))
  in
  let conn = Switchd.connect t in
  let reply (_ : string) = () in
  let serve ~now f =
    let b = Bytes.unsafe_of_string f in
    match Switchd.feed t conn ~now b ~off:0 ~len:(Bytes.length b) reply with
    | Ok () -> ()
    | Error e -> Alcotest.failf "feed: %a" Codec.pp_error e
  in
  serve ~now:0.
    (Codec.frame
       (Codec.Setup
          { req = 0; call = 5; route = [| 20; 21; 22; 23 |]; transit = false; rate = 1e5 }));
  let n = 4_000 in
  let frames =
    Array.init (2 * n) (fun k ->
        Codec.frame
          (Codec.Renegotiate
             { req = k + 1; call = 5; rate = (if k land 1 = 0 then 2e5 else 1e5) }))
  in
  let times = Array.init (2 * n) (fun k -> float_of_int (k + 1) *. 1e-3) in
  (* warm: the reply cache's bucket array grows past the minor heap's
     size limit, so its later doublings are not minor words *)
  for k = 0 to n - 1 do
    serve ~now:times.(k) frames.(k)
  done;
  let reneg = words_per_call n (fun i -> serve ~now:times.(n + i) frames.(n + i)) in
  Alcotest.(check int) "every renegotiation applied" (2 * n)
    (Switchd.stats t).Switchd.renegotiations;
  Alcotest.(check bool)
    (Printf.sprintf "warm switch, one renegotiation: %.2f words" reneg)
    true (reneg <= 79.)

(* byte-level entry: partial reads, pipelining, decode-error counting *)
let test_switchd_input_framing () =
  let t = mk_switch () in
  let conn = Switchd.connect t in
  let setup =
    Codec.frame
      (Codec.Setup
         { req = 1; call = 1; route = [| 0 |]; transit = false; rate = 1e5 })
  in
  let audit = Codec.frame (Codec.Audit_request { req = 2 }) in
  let stream = setup ^ audit in
  let cut = String.length setup - 3 in
  (match Switchd.input t conn ~now:0. (String.sub stream 0 cut) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "replied before the frame completed"
  | Error e -> Alcotest.failf "fatal on partial read: %a" Codec.pp_error e);
  (match
     Switchd.input t conn ~now:0.
       (String.sub stream cut (String.length stream - cut))
   with
  | Ok [ r1; r2 ] ->
      (match Codec.decode (String.sub r1 4 (String.length r1 - 4)) with
      | Ok (Codec.Ack { req = 1; _ }) -> ()
      | _ -> Alcotest.fail "first reply is not the setup ack");
      (match Codec.decode (String.sub r2 4 (String.length r2 - 4)) with
      | Ok (Codec.Audit_reply { req = 2; sessions = 1; violations = 0; _ }) -> ()
      | _ -> Alcotest.fail "second reply is not the audit")
  | Ok rs -> Alcotest.failf "expected 2 pipelined replies, got %d" (List.length rs)
  | Error e -> Alcotest.failf "fatal: %a" Codec.pp_error e);
  (* a corrupted payload is counted and skipped, stream stays usable *)
  let bad =
    let b = Bytes.of_string audit in
    Bytes.set b 4 '\xEE';
    Bytes.to_string b
  in
  (match Switchd.input t conn ~now:1. (bad ^ audit) with
  | Ok [ _ ] -> ()
  | Ok rs -> Alcotest.failf "expected 1 reply after bad frame, got %d" (List.length rs)
  | Error e -> Alcotest.failf "recoverable error escalated: %a" Codec.pp_error e);
  Alcotest.(check int) "decode error counted" 1
    (Switchd.stats t).Switchd.decode_errors

(* --- loadgen --------------------------------------------------------- *)

let test_loadgen_backoff () =
  check_exact "attempt 0" 0.2 (Loadgen.backoff ~base:0.2 ~attempt:0);
  check_exact "attempt 3" 1.6 (Loadgen.backoff ~base:0.2 ~attempt:3)

let test_loadgen_storm_deterministic () =
  let topology = Topology.single_link ~capacity:1e6 in
  let mk () =
    Loadgen.storm ~topology ~calls:6 ~rounds:3 ~rate_max:1e5 ~rm_fraction:0.5
      ~seed:11 ~conns:2
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "same seed, same ops" true (a = b);
  Alcotest.(check int) "one queue per conn" 2 (Array.length a);
  (* each call sets up exactly once and tears down exactly once, on its
     home connection *)
  let count p = Array.fold_left (fun acc q -> acc + List.length (List.filter p q)) 0 a in
  Alcotest.(check int) "six setups"
    6 (count (function Loadgen.Op_setup _ -> true | _ -> false));
  Alcotest.(check int) "six teardowns"
    6 (count (function Loadgen.Op_teardown _ -> true | _ -> false));
  Array.iteri
    (fun c q ->
      List.iter
        (fun op ->
          let call =
            match op with
            | Loadgen.Op_setup { call; _ }
            | Loadgen.Op_reneg { call; _ }
            | Loadgen.Op_delta { call; _ }
            | Loadgen.Op_resync { call; _ }
            | Loadgen.Op_teardown { call } ->
                call
          in
          Alcotest.(check int) "call on home conn" c (call mod 2))
        q)
    a;
  let c = Loadgen.storm ~topology ~calls:6 ~rounds:3 ~rate_max:1e5
      ~rm_fraction:0.5 ~seed:12 ~conns:2
  in
  Alcotest.(check bool) "different seed, different ops" true (a <> c)

let test_loadgen_outcome_hash () =
  let a = [ (1, Loadgen.Acked 5e5); (2, Loadgen.Denied Codec.Capacity) ] in
  let shuffled = [ (2, Loadgen.Denied Codec.Capacity); (1, Loadgen.Acked 5e5) ] in
  Alcotest.(check int) "order-insensitive" (Loadgen.outcome_hash a)
    (Loadgen.outcome_hash shuffled);
  let changed = [ (1, Loadgen.Acked 5e5); (2, Loadgen.Gave_up) ] in
  Alcotest.(check bool) "outcome-sensitive" true
    (Loadgen.outcome_hash a <> Loadgen.outcome_hash changed);
  let renumbered = [ (3, Loadgen.Acked 5e5); (2, Loadgen.Denied Codec.Capacity) ] in
  Alcotest.(check bool) "req-sensitive" true
    (Loadgen.outcome_hash a <> Loadgen.outcome_hash renumbered)

let test_loadgen_message_of_op () =
  (match
     Loadgen.message_of_op ~req:9
       (Loadgen.Op_setup { call = 1; route = [| 0 |]; transit = false; rate = 2. })
   with
  | Codec.Setup { req = 9; call = 1; _ } -> ()
  | m -> Alcotest.failf "bad setup mapping: %a" pp_msg m);
  match Loadgen.message_of_op ~req:9 (Loadgen.Op_delta { call = 4; delta = -1. }) with
  | Codec.Delta { vci = 4; _ } -> ()
  | m -> Alcotest.failf "bad delta mapping: %a" pp_msg m

(* --- end-to-end in process: storm through bytes ---------------------- *)

(* The whole stack without sockets: storm ops -> frames -> (mangled) ->
   Switchd.input -> replies; then reliable teardowns and a final audit.
   This is the daemon-smoke CI step in miniature, run per test suite. *)
let test_storm_through_bytes () =
  let topology = Topology.single_link ~capacity:1e6 in
  let t = Switchd.create (Switchd.default_config topology) in
  let conn = Switchd.connect t in
  let mangle =
    Mangle.create ~seed:5
      (Plan.lossy ~drop:0.15 ~duplicate:0.1 ~corrupt:0.1 ())
  in
  let ops =
    Loadgen.storm ~topology ~calls:5 ~rounds:3 ~rate_max:1e5 ~rm_fraction:0.4
      ~seed:21 ~conns:1
  in
  let req = ref 0 in
  let now = ref 0. in
  let push frame =
    now := !now +. 0.01;
    match Switchd.input t conn ~now:!now frame with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "framing lost: %a" Codec.pp_error e
  in
  List.iter
    (fun op ->
      incr req;
      let frame = Codec.frame (Loadgen.message_of_op ~req:!req op) in
      List.iter push (Mangle.send mangle frame))
    ops.(0);
  List.iter push (Mangle.flush mangle);
  (* reliable cleanup, as rcbr_loadgen's finish phase *)
  for call = 0 to 4 do
    incr req;
    push (Codec.frame (Codec.Teardown { req = !req; call }))
  done;
  Alcotest.(check int) "switch empty" 0 (Switchd.sessions t);
  Alcotest.(check int) "conservation held" 0 (Switchd.audit t);
  Alcotest.(check bool) "demand settled" true
    (Float.abs (Switchd.total_demand t) < 1e-6);
  Alcotest.(check int) "no invariant-relevant surprises" 0
    (Switchd.stats t).Switchd.unexpected

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_wire"
    [
      ( "codec",
        [
          Alcotest.test_case "totality fuzz" `Quick test_decode_total_fuzz;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "typed errors" `Quick test_codec_errors_typed;
        ] );
      ( "framing",
        [
          Alcotest.test_case "arbitrary boundaries" `Quick
            test_reader_arbitrary_boundaries;
          Alcotest.test_case "recoverable vs fatal" `Quick
            test_reader_recoverable_and_fatal;
        ] );
      ( "mangle",
        [ Alcotest.test_case "deterministic" `Quick test_mangle_deterministic ] );
      ( "switchd",
        [
          Alcotest.test_case "setup + idempotency" `Quick
            test_switchd_setup_and_idempotency;
          Alcotest.test_case "denial taxonomy" `Quick test_switchd_denials;
          Alcotest.test_case "rm cells + audit" `Quick
            test_switchd_rm_cells_and_audit;
          Alcotest.test_case "drain" `Quick test_switchd_drain;
          Alcotest.test_case "controller by handle" `Quick
            test_switchd_controller_sparse_ids;
          Alcotest.test_case "input framing" `Quick test_switchd_input_framing;
          Alcotest.test_case "rm cells reach the controller" `Quick
            test_switchd_rm_cells_reach_controller;
          Alcotest.test_case "route-only advance" `Quick
            test_switchd_route_only_advance;
          Alcotest.test_case "feed = input" `Quick test_switchd_feed_equals_input;
          Alcotest.test_case "frame path allocation" `Quick
            test_frame_path_allocation;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "backoff" `Quick test_loadgen_backoff;
          Alcotest.test_case "storm deterministic" `Quick
            test_loadgen_storm_deterministic;
          Alcotest.test_case "outcome hash" `Quick test_loadgen_outcome_hash;
          Alcotest.test_case "message mapping" `Quick test_loadgen_message_of_op;
          Alcotest.test_case "storm through bytes" `Quick
            test_storm_through_bytes;
        ] );
      ( "properties",
        q [ prop_roundtrip; prop_frame_roundtrip ] );
    ]
