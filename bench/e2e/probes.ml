(* Layer probes: timing loops around one public function each, driven at
   the shape the workload that uses the layer gives it.  They are the
   per-layer times of the traced run; every traced run runs all of
   them, so each layer's time is measured whichever workload is traced.

   Each probe times [reps] batches of [batch] operations with the
   monotonic clock and reports the median per-operation time.  The
   stateful structures (Wheel, Store) are probed in steady state — the
   live population is restored between batches — rather than through an
   estimator that would let them grow without bound. *)

module Wheel = Rcbr_queue.Wheel
module Store = Rcbr_net.Store
module Link = Rcbr_net.Link
module Topology = Rcbr_net.Topology
module Controller = Rcbr_admission.Controller
module Solver = Rcbr_effbw.Chernoff.Solver
module Codec = Rcbr_wire.Codec
module Frame = Rcbr_wire.Frame
module Loadgen = Rcbr_wire.Loadgen
module Megacall = Rcbr_sim.Megacall
module Schedule = Rcbr_core.Schedule
module Rng = Rcbr_util.Rng

let reps = 15
let batch = 4096

let time_ns f =
  let t0 = Span.now_ns () in
  f ();
  float_of_int (Span.now_ns () - t0) /. float_of_int batch

let per_op_ns f =
  Pct.median
    (Array.init reps (fun _ ->
         time_ns (fun () ->
             for i = 0 to batch - 1 do
               f i
             done)))

(* Probes that share state run in list order (List.map applies [f] to
   the head first). *)
let timed ops = List.map (fun (name, op) -> (name, per_op_ns op)) ops

(* The ramp's rate levels and per-shard population. *)
let ramp = Wl_megacall.config Wl_megacall.Ramp ~seed:0
let levels = ramp.Megacall.levels
let shard_calls = ramp.Megacall.calls_per_shard
let mean_level = Array.fold_left ( +. ) 0. levels /. float_of_int (Array.length levels)

(* Scatter batch indices over a power-of-two population, as random
   call handles would. *)
let scatter mask i = i * 7919 land mask

(* Churn's wheel: 32 768 live entries with exponential 1 s holds. *)
let wheel () =
  let rng = Rng.create 11 in
  let w : int Wheel.t = Wheel.create () in
  let now = ref 0. in
  let holds = Array.init batch (fun _ -> Rng.exponential rng 1.) in
  let refill () = Array.iteri (fun i h -> ignore (Wheel.push w ~time:(!now +. h) i)) holds in
  for _ = 1 to 32_768 / batch do
    refill ()
  done;
  let push = Array.make reps 0. and cancel = Array.make reps 0. and pop = Array.make reps 0. in
  for r = 0 to reps - 1 do
    let hs = ref [||] in
    push.(r) <-
      time_ns (fun () -> hs := Array.mapi (fun i h -> Wheel.push w ~time:(!now +. h) i) holds);
    cancel.(r) <- time_ns (fun () -> Array.iter (Wheel.cancel w) !hs);
    pop.(r) <-
      time_ns (fun () ->
          for _ = 1 to batch do
            match Wheel.pop w with Some (t, _) -> now := t | None -> ()
          done);
    refill ()
  done;
  [
    ("wheel.push_ns", Pct.median push);
    ("wheel.cancel_ns", Pct.median cancel);
    ("wheel.pop_ns", Pct.median pop);
  ]

(* The ramp's store: one shard's 8x8 grid holding its calls. *)
let store () =
  let topo = Topology.grid ~rows:8 ~cols:8 ~capacity:1. in
  let routes = (topo : Topology.t).routes in
  let n_routes = Array.length routes in
  let hops = Array.fold_left ( + ) 0 (Topology.route_lengths topo) in
  let per_link =
    float_of_int shard_calls *. mean_level *. float_of_int hops
    /. float_of_int n_routes /. float_of_int (Topology.n_links topo)
  in
  let topo = Topology.grid ~rows:8 ~cols:8 ~capacity:(1.05 *. per_link) in
  let links = Link.of_topology topo in
  let store = Store.create ~capacity_hint:shard_calls () in
  let rng = Rng.create 13 in
  let hs =
    Array.init shard_calls (fun id ->
        let route = routes.(Rng.int rng n_routes) in
        let h = Store.acquire store ~id ~route ~transit:(Array.length route > 1) in
        Store.settle ~links store h ~rate:levels.(Rng.int rng (Array.length levels));
        h)
  in
  let mask = shard_calls - 1 in
  let level i = levels.(i mod Array.length levels) in
  timed
    [
      ( "store.acquire_release_ns",
        fun i ->
          let route = routes.(i mod n_routes) in
          Store.release store
            (Store.acquire store ~id:(shard_calls + i) ~route
               ~transit:(Array.length route > 1)) );
      ( "store.fits_ns",
        fun i ->
          ignore (Store.fits ~links store hs.(scatter mask i) ~rate:(level i) ~now:0.) );
      ("store.settle_ns", fun i -> Store.settle ~links store hs.(scatter mask i) ~rate:(level i));
    ]

(* A monotone clock for controller calls, advanced once per operation
   so no decision repeats an earlier [now]. *)
let ticker start step =
  let now = ref start in
  fun () ->
    now := !now +. step;
    !now

(* The ramp's controller: memory scheme, three levels, one shard's
   calls in the system.  [update] cycles a call through a
   renegotiation, its departure and its re-admission. *)
let controller () =
  let c =
    Controller.memory
      ~capacity:(1.1 *. float_of_int shard_calls *. mean_level)
      ~target:1e-6
  in
  let n_levels = Array.length levels in
  for call = 0 to shard_calls - 1 do
    Controller.on_admit c ~now:(float_of_int call *. 1e-5) ~call
      ~rate:levels.(call mod n_levels)
  done;
  let now = ticker (float_of_int shard_calls *. 1e-5) 1e-6 in
  let mask = shard_calls - 1 in
  (* Some finalized history, as the ramp has after its first
     renegotiations; without any, a decision scans every call. *)
  for i = 0 to 1023 do
    let call = scatter mask i in
    Controller.on_renegotiate c ~now:(now ()) ~call ~rate:levels.((call + 1) mod n_levels)
  done;
  timed
    [
      ("controller.decide_ns", fun _ -> ignore (Controller.admit c ~now:(now ())));
      ( "controller.update_ns",
        fun i ->
          let call = scatter mask (i / 3) in
          match i mod 3 with
          | 0 -> Controller.on_renegotiate c ~now:(now ()) ~call ~rate:levels.((call + 2) mod n_levels)
          | 1 -> Controller.on_depart c ~now:(now ()) ~call
          | _ -> Controller.on_admit c ~now:(now ()) ~call ~rate:levels.(call mod n_levels) );
    ]

(* mbac-grid's set-up and admission: the reference trace synthesized
   and solved once (its time is the set-up's), then, at a mid-grid
   point, the schedule marginal, a 64x-mean link and the population
   that fills nine tenths of it. *)
let mbac () =
  let spans = Span.create () in
  let trace, schedule, stats = Wl_mbac_grid.reference spans in
  let seconds name = Array.fold_left ( +. ) 0. (Span.durations_ns spans name) *. 1e-9 in
  let marginal = Schedule.marginal schedule in
  let mean = Schedule.mean_rate schedule in
  let capacity = 64. *. Rcbr_traffic.Trace.mean_rate trace in
  let weights = Array.map fst marginal in
  let rng = Rng.create 17 in
  let draw () = snd marginal.(Rng.choose rng weights) in
  let c = Controller.memory ~capacity ~target:1e-3 in
  let n = int_of_float (0.9 *. capacity /. mean) in
  let now = ticker 0. 0.5 in
  for call = 0 to n - 1 do
    Controller.on_admit c ~now:(now ()) ~call ~rate:(draw ())
  done;
  for i = 0 to (4 * n) - 1 do
    Controller.on_renegotiate c ~now:(now ()) ~call:(i mod n) ~rate:(draw ())
  done;
  let solver = Solver.of_marginal marginal in
  [
    ("traffic.synthesize_s", seconds "traffic.synthesize");
    ("trellis.solve_s", seconds "trellis.solve");
    ("trellis.expanded_nodes", float_of_int stats.Rcbr_core.Optimal.expanded);
  ]
  @ timed
      [
        ("controller.decide_mbac_ns", fun _ -> ignore (Controller.admit c ~now:(now ())));
        (* Alternating capacities defeat the one-entry memo, so every query
           is a warm-started search. *)
        ( "chernoff.max_calls_warm_ns",
          fun i ->
            let capacity = if i land 1 = 0 then capacity else capacity *. 1.01 in
            ignore (Solver.max_calls solver ~capacity ~target:1e-3) );
      ]

(* The signalling storm's messages: encode to a frame, and feed plus
   decode one frame through a reader. *)
let wire () =
  let ops = Wl_signalling.storm_ops ~seed:7 in
  let msgs =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun c ops -> Array.mapi (fun k op -> Loadgen.message_of_op ~req:(Wl_signalling.req_id c k) op) ops)
            ops))
  in
  let n = Array.length msgs in
  let frames = Array.map Codec.frame msgs in
  let reader = Frame.Reader.create () in
  (* The daemon's protocol core on the same storm, no socket. *)
  let r = Wl_signalling.replay ops in
  [
    ("switchd.input_ns", r.Wl_signalling.input_ns);
    ("switchd.alloc_words_per_frame", r.Wl_signalling.words_per_frame);
  ]
  @ timed
      [
        ("codec.encode_ns", fun i -> ignore (Codec.frame msgs.(i mod n)));
        ( "frame.decode_ns",
          fun i ->
            Frame.Reader.feed_string reader frames.(i mod n);
            ignore (Frame.Reader.next reader) );
      ]

let all spans =
  List.concat_map
    (fun (name, probe) -> Span.within spans ("probe." ^ name) (fun _ -> probe ()))
    [
      ("wheel", wheel);
      ("store", store);
      ("controller", controller);
      ("mbac", mbac);
      ("wire", wire);
    ]
