(* Unit tests for Rcbr_net: topology construction and validation, link
   accounting and blackout windows, store fit/settle/audit, the
   signalling machine's settle paths over store handles, and the
   equivalence of the topology-general simulator with the historical
   Multihop entry points. *)

module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Session = Rcbr_net.Session
module Multihop = Rcbr_sim.Multihop
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal

let check_exact = Alcotest.(check (float 0.))

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- Topology ------------------------------------------------------- *)

let link src dst capacity = { Topology.src; dst; capacity }

let diamond () =
  (* 0 -> 1 direct; 0 -> 2 -> 1; 0 -> 3 -> 2 -> 1 (sharing link 2). *)
  Topology.make ~n_nodes:4
    ~links:[| link 0 1 1e6; link 0 2 1e6; link 2 1 1e6; link 0 3 1e6; link 3 2 1e6 |]
    ~routes:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 2 |] |]

let test_topology_constructors () =
  let t = Topology.single_link ~capacity:2e6 in
  Alcotest.(check int) "single link count" 1 (Topology.n_links t);
  Alcotest.(check int) "single route count" 1 (Topology.n_routes t);
  Alcotest.(check (array int)) "single route lengths" [| 1 |]
    (Topology.route_lengths t);
  let t = Topology.linear ~hops:4 ~capacity:1e6 in
  Alcotest.(check int) "linear links" 4 (Topology.n_links t);
  Alcotest.(check (array int)) "linear route lengths" [| 4 |]
    (Topology.route_lengths t);
  Alcotest.(check (array int)) "linear route walks the chain" [| 0; 1; 2; 3 |]
    t.Topology.routes.(0);
  let t = Topology.parallel_routes ~routes:3 ~hops:2 ~capacity:1e6 in
  Alcotest.(check int) "parallel links" 6 (Topology.n_links t);
  Alcotest.(check int) "parallel routes" 3 (Topology.n_routes t);
  (* The historical flattening: route r is links r*hops .. r*hops+hops-1. *)
  Alcotest.(check (array int)) "route 2 layout" [| 4; 5 |] t.Topology.routes.(2);
  let d = diamond () in
  Alcotest.(check (array int)) "diamond route lengths" [| 1; 2; 3 |]
    (Topology.route_lengths d)

let test_topology_validation () =
  Alcotest.(check bool) "nonpositive capacity rejected" true
    (raises_invalid (fun () ->
         Topology.make ~n_nodes:2 ~links:[| link 0 1 0. |] ~routes:[| [| 0 |] |]));
  Alcotest.(check bool) "endpoint out of range rejected" true
    (raises_invalid (fun () ->
         Topology.make ~n_nodes:2 ~links:[| link 0 2 1e6 |] ~routes:[| [| 0 |] |]));
  Alcotest.(check bool) "no routes rejected" true
    (raises_invalid (fun () ->
         Topology.make ~n_nodes:2 ~links:[| link 0 1 1e6 |] ~routes:[||]));
  Alcotest.(check bool) "bad link id rejected" true
    (raises_invalid (fun () ->
         Topology.make ~n_nodes:2 ~links:[| link 0 1 1e6 |] ~routes:[| [| 1 |] |]));
  Alcotest.(check bool) "disconnected chain rejected" true
    (raises_invalid (fun () ->
         (* Link 1 starts at node 0, not where link 0 ended (node 1). *)
         Topology.make ~n_nodes:3
           ~links:[| link 0 1 1e6; link 0 2 1e6 |]
           ~routes:[| [| 0; 1 |] |]))

let test_topology_json () =
  let file = Filename.temp_file "rcbr_topo" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  output_string oc
    {|{ "nodes": 3,
        "links": [ {"src": 0, "dst": 2, "capacity": 1e6},
                   {"src": 2, "dst": 1, "capacity": 2e6} ],
        "routes": [ [0, 1] ] }|};
  close_out oc;
  let t =
    match Topology.load file with
    | Ok t -> t
    | Error msg -> Alcotest.failf "good file rejected: %s" msg
  in
  Alcotest.(check int) "nodes" 3 t.Topology.n_nodes;
  Alcotest.(check int) "links" 2 (Topology.n_links t);
  check_exact "capacity read" 2e6 t.Topology.links.(1).Topology.capacity;
  Alcotest.(check (array int)) "route read" [| 0; 1 |] t.Topology.routes.(0)

(* One check per malformed-input class: each must land in a descriptive
   [Error], never an exception (ISSUE 6 satellite). *)
let test_topology_json_errors () =
  let expect_error name json =
    match Topology.of_json json with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error msg ->
        Alcotest.(check bool)
          (name ^ " message nonempty")
          true
          (String.length msg > 0)
  in
  let parse s = Rcbr_util.Json.parse s in
  expect_error "non-object" (Rcbr_util.Json.Int 3);
  expect_error "missing routes"
    (parse {|{ "nodes": 2, "links": [{"src":0,"dst":1,"capacity":1.0}] }|});
  expect_error "mistyped nodes"
    (parse
       {|{ "nodes": "two",
           "links": [{"src":0,"dst":1,"capacity":1.0}], "routes": [[0]] }|});
  expect_error "negative capacity"
    (parse
       {|{ "nodes": 2,
           "links": [{"src":0,"dst":1,"capacity":-5.0}], "routes": [[0]] }|});
  expect_error "bad link endpoint"
    (parse
       {|{ "nodes": 2,
           "links": [{"src":0,"dst":7,"capacity":1.0}], "routes": [[0]] }|});
  expect_error "dangling route hop"
    (parse
       {|{ "nodes": 2,
           "links": [{"src":0,"dst":1,"capacity":1.0}], "routes": [[0, 3]] }|});
  (* Non-JSON bytes and missing files go through [load]. *)
  let file = Filename.temp_file "rcbr_topo" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  output_string oc "this is not json {";
  close_out oc;
  (match Topology.load file with
  | Ok _ -> Alcotest.fail "non-JSON bytes accepted"
  | Error msg ->
      Alcotest.(check bool) "non-JSON error names the file" true
        (String.length msg > 0));
  match Topology.load (file ^ ".does-not-exist") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* The [--topology] grammar every CLI shares: each spec parses, prints
   back, and resolves to its shape; each malformed one is refused with
   the message the CLIs show. *)
let test_topology_specs () =
  let spec = Alcotest.testable Topology.pp_spec ( = ) in
  let parses s expected =
    Alcotest.(check (result spec string)) s (Ok expected)
      (Topology.spec_of_string s);
    Alcotest.(check string) (s ^ " prints back") s
      (Format.asprintf "%a" Topology.pp_spec expected)
  in
  let shape s =
    match
      Result.bind (Topology.spec_of_string s) (Topology.of_spec ~capacity:1e6)
    with
    | Ok t -> (Topology.n_links t, Topology.route_lengths t)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  let shapes = Alcotest.(pair int (array int)) in
  parses "single" Topology.Single;
  parses "linear:3" (Topology.Linear 3);
  Alcotest.check shapes "single shape" (1, [| 1 |]) (shape "single");
  Alcotest.check shapes "linear:3 shape" (3, [| 3 |]) (shape "linear:3");
  let file = Filename.temp_file "rcbr_topo" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  output_string oc
    {|{ "nodes": 3,
        "links": [ {"src": 0, "dst": 1, "capacity": 1e6},
                   {"src": 1, "dst": 2, "capacity": 2e6} ],
        "routes": [ [0, 1], [1] ] }|};
  close_out oc;
  parses ("mesh:" ^ file) (Topology.Mesh file);
  Alcotest.check shapes "mesh shape" (2, [| 2; 1 |]) (shape ("mesh:" ^ file));
  List.iter
    (fun (s, msg) ->
      Alcotest.(check (result spec string)) s (Error msg)
        (Topology.spec_of_string s))
    [
      ("linear:0", {|bad hop count in "linear:0"|});
      ("linear:x", {|bad hop count in "linear:x"|});
      ("ring", {|topology "ring" is not single, linear:HOPS or mesh:FILE|});
    ]

(* --- Link ----------------------------------------------------------- *)

let test_link_advance () =
  let l = Link.create ~capacity:10. () in
  l.Link.acct.demand <- 15.;
  l.Link.n_calls <- 3;
  Link.advance l ~now:2.;
  check_exact "offered integrates demand" 30. l.Link.acct.offered_bits;
  check_exact "granted capped at capacity" 20. l.Link.acct.granted_bits;
  check_exact "lost is the excess" 10. l.Link.acct.lost_bits;
  check_exact "call seconds" 6. l.Link.acct.call_seconds;
  (* Going backwards (or nowhere) is a no-op. *)
  Link.advance l ~now:1.;
  check_exact "no retro-integration" 30. l.Link.acct.offered_bits;
  check_exact "last stays" 2. l.Link.acct.last;
  Link.reset_window l;
  check_exact "window reset zeroes offered" 0. l.Link.acct.offered_bits;
  check_exact "window reset keeps demand" 15. l.Link.acct.demand

let test_link_blackouts () =
  let windows = Link.compile_blackouts [ (5., 7.); (1., 2.); (1.5, 3.); (9., 9.) ] in
  (* (9,9) is empty; (1,2) and (1.5,3) merge. *)
  Alcotest.(check int) "merged window count" 2 (Array.length windows);
  Alcotest.(check (pair (float 0.) (float 0.))) "merged window" (1., 3.) windows.(0);
  let l = Link.create ~blackouts:windows ~capacity:1. () in
  List.iter
    (fun (now, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "down at %g" now)
        expect (Link.down l ~now))
    [
      (0.5, false);
      (1., true) (* inclusive start *);
      (2.5, true) (* inside the merged window *);
      (3., false) (* exclusive end *);
      (4., false);
      (5., true);
      (6.99, true);
      (7., false);
      (9., false) (* the empty window was dropped *);
    ];
  (* Merged membership must agree with List.exists on the raw list. *)
  let raw = [ (5., 7.); (1., 2.); (1.5, 3.) ] in
  for i = 0 to 100 do
    let now = float_of_int i /. 10. in
    Alcotest.(check bool)
      (Printf.sprintf "membership at %g" now)
      (List.exists (fun (a, r) -> a <= now && now < r) raw)
      (Link.down l ~now)
  done

let test_link_of_topology () =
  let links =
    Link.of_topology
      ~crashes:[ (1, 10., 20.); (1, 15., 30.); (99, 0., 1.); (-1, 0., 1.) ]
      (diamond ())
  in
  Alcotest.(check int) "one state per link" 5 (Array.length links);
  Alcotest.(check bool) "link 0 clean" false (Link.down links.(0) ~now:15.);
  Alcotest.(check bool) "link 1 crashed (merged)" true
    (Link.down links.(1) ~now:25.);
  Alcotest.(check bool) "out-of-range crash ids ignored" true
    (Array.for_all (fun l -> Array.length l.Link.blackouts = 0)
       [| links.(0); links.(2); links.(3); links.(4) |])

(* --- Session: route queries and the signalling machine on Store ------ *)

module Store = Rcbr_net.Store

(* The accounting floats are an all-float record, so integrating a link
   and settling a call write them in place.  The rates and times come
   from lists, boxed already, so the caller boxes nothing either;
   [Gc.minor_words] counts its own result, hence the small slack. *)
let test_link_settle_allocation () =
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let l = Link.create ~capacity:10. () in
  l.Link.n_calls <- 2;
  l.Link.acct.demand <- 15.;
  let times = List.init 10_000 (fun i -> float_of_int (i + 1)) in
  let advance now = Link.advance l ~now in
  let words = minor_words (fun () -> List.iter advance times) in
  check_exact "integrated" 20_000. l.Link.acct.call_seconds;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 advances" words)
    true (words < 16.);
  let links = Array.init 3 (fun _ -> Link.create ~capacity:1e9 ()) in
  let store = Store.create () in
  let h = Store.acquire store ~id:0 ~route:[| 0; 1; 2 |] ~transit:true in
  let rates = List.init 10_000 (fun i -> if i land 1 = 0 then 1e5 else 2e5) in
  let settle rate = Store.settle ~links store h ~rate in
  let words = minor_words (fun () -> List.iter settle rates) in
  Array.iter (fun l -> check_exact "settled" 2e5 l.Link.acct.demand) links;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 three-hop settles" words)
    true (words < 16.)

module Rng = Rcbr_util.Rng

let test_session_fit_settle_audit () =
  let topo = diamond () in
  let links = Link.of_topology topo in
  let store = Store.create () in
  let s2 = Store.acquire store ~id:0 ~route:topo.Topology.routes.(1) ~transit:true in
  let s3 = Store.acquire store ~id:1 ~route:topo.Topology.routes.(2) ~transit:true in
  Alcotest.(check bool) "fits within capacity" true
    (Store.fits ~links store s2 ~rate:9e5 ~now:0.);
  Store.settle ~links store s2 ~rate:9e5;
  check_exact "applied recorded" 9e5 (Store.applied store s2);
  check_exact "demand on route link" 9e5 links.(1).Link.acct.demand;
  check_exact "demand on shared link" 9e5 links.(2).Link.acct.demand;
  check_exact "other links untouched" 0. links.(0).Link.acct.demand;
  (* The shared link 2 is nearly full now, so the 3-hop route is
     blocked on its last hop even though links 3 and 4 are empty. *)
  Alcotest.(check bool) "shared link rejects" false
    (Store.fits ~links store s3 ~rate:2e5 ~now:0.);
  Alcotest.(check bool) "small rate still fits" true
    (Store.fits ~links store s3 ~rate:0.5e5 ~now:0.);
  (* Settle semantics: demand moves even when it does not fit. *)
  Store.settle ~links store s3 ~rate:2e5;
  check_exact "overloaded shared demand" 11e5 links.(2).Link.acct.demand;
  Alcotest.(check int) "conservation holds" 0 (Store.audit ~links store);
  links.(2).Link.acct.demand <- 42.;
  Alcotest.(check bool) "tampering caught" true (Store.audit ~links store > 0)

let test_session_blocked () =
  let topo = diamond () in
  let links = Link.of_topology ~crashes:[ (2, 10., 20.) ] topo in
  let store = Store.create () in
  let s = Store.acquire store ~id:0 ~route:topo.Topology.routes.(2) ~transit:true in
  Alcotest.(check bool) "clean before crash" false
    (Store.blocked ~links store s ~now:5.);
  Alcotest.(check bool) "blocked during crash" true
    (Store.blocked ~links store s ~now:15.);
  Alcotest.(check bool) "down route never fits" false
    (Store.fits ~links store s ~rate:1. ~now:15.);
  let direct =
    Store.acquire store ~id:1 ~route:topo.Topology.routes.(0) ~transit:false
  in
  Alcotest.(check bool) "other route unaffected" false
    (Store.blocked ~links store direct ~now:15.)

(* --- Session settle-path edge cases --------------------------------- *)

(* A driver that just settles on delivery — the minimal honest client of
   the state machine, no simulator accounting on top. *)
let settle_driver ~links store plane lifetime =
  {
    Session.store;
    plane;
    lifetime;
    before = (fun ~now:_ -> ());
    on_attempt = (fun ~now:_ -> ());
    retry = (fun ~now:_ -> true);
    deliver = (fun h ~now:_ ~rate -> Store.settle ~links store h ~rate);
  }

let lossy_plane ~max_retransmits =
  Session.plane ~drop:Session.Per_cell
    {
      Session.no_faults with
      Session.rm_drop = 1.0;
      retx_timeout = 0.2;
      max_retransmits;
      fault_seed = 5;
    }

let single_call () =
  let topo = Topology.single_link ~capacity:1e6 in
  let store = Store.create () in
  let h = Store.acquire store ~id:0 ~route:topo.Topology.routes.(0) ~transit:false in
  (Link.of_topology topo, store, h)

(* Give-up exactly at max_retransmits: initial cell + 2 retransmissions
   all lost, then the change is applied anyway (settle semantics) and
   conservation still holds. *)
let test_session_give_up_at_cap () =
  let links, store, s = single_call () in
  let plane = lossy_plane ~max_retransmits:2 in
  let d = settle_driver ~links store plane (Session.Hold_until infinity) in
  let engine = Rcbr_queue.Events.create () in
  Session.signal d s ~rate:5e4 engine;
  Rcbr_queue.Events.run engine;
  let c = plane.Session.counters in
  Alcotest.(check int) "all three transmissions lost" 3 c.Session.rm_lost;
  Alcotest.(check int) "exactly max retransmits" 2 c.Session.retransmits;
  Alcotest.(check int) "one abandoned change" 1 c.Session.abandoned;
  Alcotest.(check int) "nothing superseded" 0 c.Session.superseded;
  check_exact "applied anyway after give-up" 5e4 (Store.applied store s);
  check_exact "demand follows" 5e4 links.(0).Link.acct.demand;
  Alcotest.(check int) "conservation holds" 0 (Store.audit ~links store)

(* A newer renegotiation supersedes the pending retransmission of an
   older one: the old retx dies at the gen check, the new change runs
   its own retransmit budget, and only the new rate lands. *)
let test_session_superseded_resync () =
  let links, store, s = single_call () in
  let plane = lossy_plane ~max_retransmits:1 in
  let d = settle_driver ~links store plane (Session.Hold_until infinity) in
  let engine = Rcbr_queue.Events.create () in
  (* t=0: change A (lost, retx armed for t=0.2).  t=0.1: change B
     supersedes it (lost, retx armed for t=0.3).  t=0.2: A's retx finds
     gen moved on.  t=0.3: B's retx is lost too -> give up, B lands. *)
  Session.signal d s ~rate:3e4 engine;
  Rcbr_queue.Events.schedule engine ~at:0.1 (fun engine ->
      Session.signal d s ~rate:8e4 engine);
  Rcbr_queue.Events.run engine;
  let c = plane.Session.counters in
  Alcotest.(check int) "A, B and B's retx lost" 3 c.Session.rm_lost;
  Alcotest.(check int) "only B retransmits" 1 c.Session.retransmits;
  Alcotest.(check int) "A's retx superseded" 1 c.Session.superseded;
  Alcotest.(check int) "B abandoned" 1 c.Session.abandoned;
  check_exact "the superseding rate lands" 8e4 (Store.applied store s);
  Alcotest.(check int) "conservation holds" 0 (Store.audit ~links store)

(* Departure while a retransmission is in flight: cancel_pending bumps
   gen, the timer fires into the superseded branch, and the links end
   the run empty. *)
let test_session_depart_with_retx_in_flight () =
  let links, store, s = single_call () in
  let plane = lossy_plane ~max_retransmits:3 in
  let d = settle_driver ~links store plane (Session.Hold_until infinity) in
  let engine = Rcbr_queue.Events.create () in
  Session.signal d s ~rate:6e4 engine;
  Rcbr_queue.Events.schedule engine ~at:0.1 (fun _ ->
      (* The departure path every simulator uses: kill the pending
         retransmission, then account the call down to zero. *)
      Session.cancel_pending d s;
      Store.settle ~links store s ~rate:0.);
  Rcbr_queue.Events.run engine;
  let c = plane.Session.counters in
  Alcotest.(check int) "only the first cell was lost" 1 c.Session.rm_lost;
  Alcotest.(check int) "no retransmission ran" 0 c.Session.retransmits;
  Alcotest.(check int) "the armed retx was superseded" 1 c.Session.superseded;
  Alcotest.(check int) "nothing abandoned" 0 c.Session.abandoned;
  check_exact "departed clean" 0. (Store.applied store s);
  check_exact "link empty" 0. links.(0).Link.acct.demand;
  Alcotest.(check int) "conservation holds" 0 (Store.audit ~links store)

(* Handles recycle and [Store.acquire] restarts [gen] at 0, so the next
   call on a slot reaches the same generation its predecessor's timer
   captured.  The departure's cancel must kill that timer: it counts as
   superseded and never touches the new call's rate or the link. *)
let test_session_recycled_handle_retx () =
  let links, store, a = single_call () in
  let plane = lossy_plane ~max_retransmits:3 in
  let d = settle_driver ~links store plane (Session.Hold_until infinity) in
  let engine = Rcbr_queue.Events.create () in
  (* t=0: a's renegotiation is lost; its retx is armed for t=0.2 with
     the generation a's first change produced. *)
  Session.signal d a ~rate:6e4 engine;
  let b = ref (-1) in
  Rcbr_queue.Events.schedule engine ~at:0.1 (fun _ ->
      Session.cancel_pending d a;
      Store.settle ~links store a ~rate:0.;
      Store.release store a;
      b := Store.acquire store ~id:1 ~route:[| 0 |] ~transit:false;
      (* b's setup settles unsignalled; one bump brings its gen to the
         one a's timer captured. *)
      Store.bump_gen store !b;
      Store.settle ~links store !b ~rate:2e4);
  Rcbr_queue.Events.run engine;
  let c = plane.Session.counters in
  Alcotest.(check int) "slot recycled" a !b;
  Alcotest.(check int) "stale timer superseded" 1 c.Session.superseded;
  Alcotest.(check int) "stale timer never retransmitted" 0 c.Session.retransmits;
  Alcotest.(check int) "nothing abandoned" 0 c.Session.abandoned;
  check_exact "new call keeps its own rate" 2e4 (Store.applied store !b);
  check_exact "link carries only the new call" 2e4 links.(0).Link.acct.demand;
  Alcotest.(check int) "conservation holds" 0 (Store.audit ~links store)

(* --- Grid topology --------------------------------------------------- *)

let test_grid_topology () =
  let t = Topology.grid ~rows:3 ~cols:4 ~capacity:1e6 in
  (* east: rows*(cols-1) = 9; south: (rows-1)*cols = 8. *)
  Alcotest.(check int) "links" 17 (Topology.n_links t);
  (* every row, every column, two corner-to-corner staircases *)
  Alcotest.(check int) "routes" 9 (Topology.n_routes t);
  let lens = Topology.route_lengths t in
  Alcotest.(check int) "row route spans the row" 3 lens.(0);
  Alcotest.(check int) "column route spans the column" 2 lens.(3);
  Alcotest.(check int) "staircase spans both" 5 lens.(7);
  Alcotest.(check bool) "degenerate grid rejected" true
    (raises_invalid (fun () -> Topology.grid ~rows:1 ~cols:4 ~capacity:1e6))

(* --- Store: struct-of-arrays sessions -------------------------------- *)

let test_store_acquire_release_reuse () =
  let topo = Topology.grid ~rows:2 ~cols:2 ~capacity:1e6 in
  let store = Store.create ~capacity_hint:2 () in
  let route = topo.Topology.routes.(0) in
  let a = Store.acquire store ~id:10 ~route ~transit:false in
  let b = Store.acquire store ~id:11 ~route ~transit:false in
  Alcotest.(check int) "two live" 2 (Store.live_count store);
  Alcotest.(check int) "ids stored" 11 (Store.id store b);
  Alcotest.(check bool) "live" true (Store.is_live store a);
  Store.release store a;
  Alcotest.(check bool) "released" false (Store.is_live store a);
  let c = Store.acquire store ~id:12 ~route ~transit:true in
  Alcotest.(check int) "freed handle recycled" a c;
  Alcotest.(check int) "id overwritten" 12 (Store.id store c);
  check_exact "applied reset on reuse" 0. (Store.applied store c);
  Alcotest.(check int) "cursor reset on reuse" 0 (Store.cursor store c);
  Alcotest.(check bool) "transit stored" true (Store.transit store c);
  let hops = ref [] in
  Store.route_iter store c (fun l -> hops := l :: !hops);
  Alcotest.(check (list int)) "route readable" (Array.to_list route)
    (List.rev !hops)

(* A warm store recycles handles without allocating: it keeps each
   call's route by reference, so an acquire copies nothing and no
   shared array grows or is compacted as calls come and go.  The
   routes, one per grid route plus a staircase prefix of every length,
   are built before the count starts; [Gc.counters] boxes its own
   result, hence the minor slack. *)
let test_store_churn_allocation () =
  let topo = Topology.grid ~rows:8 ~cols:8 ~capacity:1e6 in
  let stair = topo.Topology.routes.(Topology.n_routes topo - 1) in
  let routes =
    Array.append topo.Topology.routes
      (Array.init (Array.length stair) (fun i -> Array.sub stair 0 (i + 1)))
  in
  let n_routes = Array.length routes in
  let warm = 4_096 and cycles = 100_000 in
  let store = Store.create () in
  let live =
    Array.init warm (fun i ->
        Store.acquire store ~id:i ~route:routes.(i mod n_routes) ~transit:true)
  in
  Gc.minor ();
  let minor0, _, major0 = Gc.counters () in
  for i = 0 to cycles - 1 do
    (* Release in a scattered order, so routes of every length free up
       between live ones. *)
    let slot = i * 7_919 mod warm in
    Store.release store live.(slot);
    live.(slot) <-
      Store.acquire store ~id:(warm + i) ~route:routes.(i mod n_routes)
        ~transit:true
  done;
  let minor1, _, major1 = Gc.counters () in
  Alcotest.(check int) "population kept" warm (Store.live_count store);
  let last = live.((cycles - 1) * 7_919 mod warm) in
  let hops = ref [] in
  Store.route_iter store last (fun l -> hops := l :: !hops);
  Alcotest.(check (list int)) "last route readable"
    (Array.to_list routes.((cycles - 1) mod n_routes))
    (List.rev !hops);
  check_exact "no major words" 0. (major1 -. major0);
  let per_cycle = (minor1 -. minor0) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per release + acquire" per_cycle)
    true (per_cycle < 1.)

(* The float-expression contract: a store fed a seeded op sequence
   agrees, answer for answer and bit for bit, with a test-local record
   model of one call — its route and applied rate — written with the
   delta-form [fits]/[settle] expressions the simulators' bit-identity
   rests on (DESIGN.md §10). *)
type model_call = { route : int array; mutable applied : float }

let model_fits ~(links : Link.t array) m ~rate ~now =
  let delta = rate -. m.applied in
  Array.for_all
    (fun id ->
      let l = links.(id) in
      (not (Link.down l ~now))
      && l.Link.acct.demand +. delta <= l.Link.capacity +. 1e-9)
    m.route

let model_blocked ~(links : Link.t array) m ~now =
  Array.exists (fun id -> Link.down links.(id) ~now) m.route

let model_settle ~(links : Link.t array) m ~rate =
  let delta = rate -. m.applied in
  Array.iter
    (fun id ->
      let l = links.(id) in
      l.Link.acct.demand <- l.Link.acct.demand +. delta)
    m.route;
  m.applied <- rate

let test_store_matches_sessions () =
  let topo = Topology.grid ~rows:4 ~cols:4 ~capacity:2e5 in
  let links_s = Link.of_topology topo in
  (* store side *)
  let links_r = Link.of_topology topo in
  (* model side *)
  let store = Store.create () in
  let mirror : (int, model_call) Hashtbl.t = Hashtbl.create 64 in
  let live = ref [] in
  let rng = Rng.create 7 in
  let rates = [| 1e4; 3e4; 9e4; 2.7e5 |] in
  let n_routes = Topology.n_routes topo in
  for step = 0 to 2_999 do
    let now = float_of_int step *. 0.01 in
    let op = if !live = [] then 0 else Rng.int rng 5 in
    match op with
    | 0 | 1 ->
        let route = topo.Topology.routes.(Rng.int rng n_routes) in
        let transit = Array.length route > 1 in
        let h = Store.acquire store ~id:step ~route ~transit in
        Hashtbl.replace mirror h { route; applied = 0. };
        live := h :: !live;
        let rate = rates.(Rng.int rng (Array.length rates)) in
        Store.settle ~links:links_s store h ~rate;
        model_settle ~links:links_r (Hashtbl.find mirror h) ~rate
    | 2 | 3 ->
        (* renegotiate a random live call; fits answers must agree *)
        let h = List.nth !live (Rng.int rng (List.length !live)) in
        let m = Hashtbl.find mirror h in
        let rate = rates.(Rng.int rng (Array.length rates)) in
        Alcotest.(check bool) "fits agrees"
          (model_fits ~links:links_r m ~rate ~now)
          (Store.fits ~links:links_s store h ~rate ~now);
        Alcotest.(check bool) "blocked agrees"
          (model_blocked ~links:links_r m ~now)
          (Store.blocked ~links:links_s store h ~now);
        Store.settle ~links:links_s store h ~rate;
        model_settle ~links:links_r m ~rate
    | _ ->
        (* departure *)
        let h = List.nth !live (Rng.int rng (List.length !live)) in
        Store.settle ~links:links_s store h ~rate:0.;
        model_settle ~links:links_r (Hashtbl.find mirror h) ~rate:0.;
        Store.release store h;
        Hashtbl.remove mirror h;
        live := List.filter (fun x -> x <> h) !live
  done;
  Alcotest.(check int) "live population agrees" (List.length !live)
    (Store.live_count store);
  Array.iteri
    (fun i (l : Link.t) ->
      check_exact
        (Printf.sprintf "link %d demand bit-identical" i)
        l.Link.acct.demand links_s.(i).Link.acct.demand)
    links_r;
  List.iter
    (fun h ->
      check_exact "applied bit-identical" (Hashtbl.find mirror h).applied
        (Store.applied store h))
    !live;
  Alcotest.(check int) "store conservation" 0 (Store.audit ~links:links_s store)

(* --- run_net ---------------------------------------------------------- *)

let trace = Rcbr_traffic.Synthetic.star_wars ~frames:2_000 ~seed:42 ()
let schedule = Optimal.solve (Optimal.default_params ~cost_ratio:3e5 trace) trace
let capacity = 10. *. Rcbr_traffic.Trace.mean_rate trace

let check_metrics tag (a : Multihop.metrics) (b : Multihop.metrics) =
  Alcotest.(check int) (tag ^ " transit attempts") a.Multihop.transit_attempts
    b.Multihop.transit_attempts;
  Alcotest.(check int) (tag ^ " transit denials") a.Multihop.transit_denials
    b.Multihop.transit_denials;
  Alcotest.(check int) (tag ^ " local attempts") a.Multihop.local_attempts
    b.Multihop.local_attempts;
  Alcotest.(check int) (tag ^ " local denials") a.Multihop.local_denials
    b.Multihop.local_denials;
  check_exact (tag ^ " utilization bit-identical")
    a.Multihop.mean_hop_utilization b.Multihop.mean_hop_utilization

let test_run_net_mesh_faulty () =
  (* The new capability: routes of different lengths sharing a link,
     surviving signalling loss and a crash of the shared link with the
     conservation audit on throughout. *)
  let topology =
    Topology.make ~n_nodes:4
      ~links:
        [|
          link 0 1 capacity; link 0 2 capacity; link 2 1 capacity;
          link 0 3 capacity; link 3 2 capacity;
        |]
      ~routes:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 2 |] |]
  in
  let nc =
    {
      Multihop.schedule;
      topology;
      transit_calls = 6;
      local_calls_per_link = 3;
      horizon = 2. *. Schedule.duration schedule;
      seed = 11;
      balance = true;
      service = Rcbr_policy.Service_model.Renegotiate;
    }
  in
  let faults =
    {
      Session.no_faults with
      Session.rm_drop = 0.2;
      retx_timeout = 0.05;
      crashes = [ (2, 50., 200.) ];
      fault_seed = 99;
      check_invariants = true;
    }
  in
  let m, f = Multihop.run_net nc faults in
  Alcotest.(check bool) "transit traffic ran" true
    (m.Multihop.transit_attempts > 0);
  Alcotest.(check bool) "local traffic ran" true (m.Multihop.local_attempts > 0);
  Alcotest.(check bool) "fault plane active" true (f.Multihop.rm_lost > 0);
  Alcotest.(check bool) "crash denials observed" true
    (f.Multihop.crash_denials > 0);
  Alcotest.(check int) "conservation invariants clean" 0
    f.Multihop.invariant_failures;
  (* Null faults on the same mesh reproduce the fault-free run. *)
  let clean, zeros = Multihop.run_net nc Session.no_faults in
  let audited, _ =
    Multihop.run_net nc
      { Session.no_faults with Session.check_invariants = true }
  in
  check_metrics "audit is bit-neutral" clean audited;
  Alcotest.(check int) "null faults, zero counters" 0
    (zeros.Multihop.rm_lost + zeros.Multihop.retransmits
   + zeros.Multihop.abandoned + zeros.Multihop.crash_denials)

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "constructors" `Quick test_topology_constructors;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "json" `Quick test_topology_json;
          Alcotest.test_case "json errors" `Quick test_topology_json_errors;
          Alcotest.test_case "specs" `Quick test_topology_specs;
          Alcotest.test_case "grid" `Quick test_grid_topology;
        ] );
      ( "store",
        [
          Alcotest.test_case "acquire/release/reuse" `Quick
            test_store_acquire_release_reuse;
          Alcotest.test_case "store = record sessions" `Quick
            test_store_matches_sessions;
          Alcotest.test_case "churn allocates nothing" `Quick
            test_store_churn_allocation;
        ] );
      ( "link",
        [
          Alcotest.test_case "advance" `Quick test_link_advance;
          Alcotest.test_case "blackouts" `Quick test_link_blackouts;
          Alcotest.test_case "of_topology" `Quick test_link_of_topology;
          Alcotest.test_case "advance and settle allocation" `Quick
            test_link_settle_allocation;
        ] );
      ( "session",
        [
          Alcotest.test_case "fit/settle/audit" `Quick
            test_session_fit_settle_audit;
          Alcotest.test_case "blocked" `Quick test_session_blocked;
          Alcotest.test_case "give-up at max retransmits" `Quick
            test_session_give_up_at_cap;
          Alcotest.test_case "superseded renegotiation" `Quick
            test_session_superseded_resync;
          Alcotest.test_case "depart with retx in flight" `Quick
            test_session_depart_with_retx_in_flight;
          Alcotest.test_case "recycled handle kills stale retx" `Quick
            test_session_recycled_handle_retx;
        ] );
      ( "run_net",
        [
          Alcotest.test_case "mesh under faults" `Quick test_run_net_mesh_faulty;
        ] );
    ]
