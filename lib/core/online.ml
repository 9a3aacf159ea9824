module Trace = Rcbr_traffic.Trace

type params = {
  b_low : float;
  b_high : float;
  flush_slots : int;
  granularity : float;
  ar_coefficient : float;
  use_flush_term : bool;
}

let default_params =
  {
    b_low = 10_000.;
    b_high = 150_000.;
    flush_slots = 5;
    granularity = 100_000.;
    ar_coefficient = 0.9;
    use_flush_term = true;
  }

type outcome = {
  schedule : Schedule.t;
  max_backlog : float;
  bits_lost : float;
  predictions : float array;
}

let[@inline] quantize_up delta x =
  if x <= 0. then delta else delta *. Float.ceil (x /. delta)

let quantize_down p x = p.granularity *. Float.floor (x /. p.granularity)

(* --- The buffer monitor (Section III-A) --------------------------------

   One flat float record, so per-slot updates store unboxed.  The
   comparisons below are branches rather than [Float.min]/[Float.max]
   calls: the same bits for non-NaN input, without a call per slot. *)

type monitor = {
  size : float;
  mutable backlog : float;
  mutable max_backlog : float;
  mutable lost : float;
  mutable in_force : float;
  mutable requested : float;
  mutable prediction : float;
  mutable want : float;
}

let monitor ~size ~rate =
  {
    size;
    backlog = 0.;
    max_backlog = 0.;
    lost = 0.;
    in_force = rate;
    requested = rate;
    prediction = 0.;
    want = rate;
  }

let[@inline] step m ~tau ~bits =
  let net = m.backlog +. bits -. (m.in_force *. tau) in
  if net > m.size then begin
    m.lost <- m.lost +. (net -. m.size);
    m.backlog <- m.size
  end
  else if net > 0. then m.backlog <- net
  else m.backlog <- 0.;
  if m.backlog > m.max_backlog then m.max_backlog <- m.backlog

(* Formula (8): move only when the buffer urges it, in the direction of
   the change. *)
let[@inline] urged p m =
  (m.backlog > p.b_high && m.want > m.requested)
  || (m.backlog < p.b_low && m.want < m.requested)

(* One entry point per slot: compiled with [-opaque] (dune's dev
   profile), every call from another module is an application of
   unknown arity, so the NIU pays for one call rather than two. *)
let slot p m ~tau ~bits ~forecast =
  step m ~tau ~bits;
  (* Formula (6): the flush term sits outside the filter so that
     draining the backlog does not inflate future estimates. *)
  let flush =
    if p.use_flush_term then
      m.backlog /. (float_of_int p.flush_slots *. tau)
    else 0.
  in
  m.prediction <- forecast +. flush;
  (* Formula (7). *)
  m.want <- quantize_up p.granularity m.prediction;
  urged p m

let buffer_size = function
  | Some b ->
      assert (b > 0.);
      b
  | None -> infinity

let run_custom ?(delay_slots = 0) ?buffer p ~predictor trace =
  assert (p.b_low >= 0. && p.b_high > p.b_low);
  assert (p.flush_slots > 0 && p.granularity > 0.);
  assert (delay_slots >= 0);
  let size = buffer_size buffer in
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let predictions = Array.make n 0. in
  let pred = predictor ~initial:(Trace.frame trace 0 /. tau) in
  let rate = quantize_up p.granularity (pred.Predictor.forecast ()) in
  let m = monitor ~size ~rate in
  let segments = ref [ { Schedule.start_slot = 0; rate = m.in_force } ] in
  (* With a signalling delay [m.in_force] lags [m.requested] while a
     request is in flight: (effective_slot, rate), at most one. *)
  let pending = ref [] in
  for t = 0 to n - 1 do
    (* A granted renegotiation comes into force. *)
    (match !pending with
    | (at, rate) :: rest when at <= t ->
        m.in_force <- rate;
        pending := rest;
        segments := { Schedule.start_slot = t; rate } :: !segments
    | _ -> ());
    let bits = Trace.frame trace t in
    pred.Predictor.observe (bits /. tau);
    let act = slot p m ~tau ~bits ~forecast:(pred.Predictor.forecast ()) in
    predictions.(t) <- m.prediction;
    if t + 1 < n && act && !pending = [] then begin
      let want = m.want in
      m.requested <- want;
      if delay_slots = 0 then begin
        m.in_force <- want;
        segments := { Schedule.start_slot = t + 1; rate = want } :: !segments
      end
      else pending := [ (t + 1 + delay_slots, want) ]
    end
  done;
  let schedule =
    Schedule.create ~fps:(Trace.fps trace) ~n_slots:n (List.rev !segments)
  in
  { schedule; max_backlog = m.max_backlog; bits_lost = m.lost; predictions }

type receding_stats = {
  solves : int;
  infeasible_windows : int;
  expanded : int;
  dropped_by_beam : int;
  prior_hits : int;
}

let run_receding ?(delay_slots = 0) ?buffer ?(resolve_every_slot = false)
    ?(beam_width = 16) ?(prior = Beam.Uniform) p ~opt ~horizon ~predictor
    trace =
  assert (p.b_low >= 0. && p.b_high > p.b_low);
  assert (horizon >= 1);
  assert (delay_slots >= 0);
  let size = buffer_size buffer in
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let fps = Trace.fps trace in
  let grid = opt.Optimal.grid in
  let prior_weight = Beam.default_prior_weight opt trace in
  (* The caller's bound is the planning headroom (e.g. half the physical
     buffer): windows are solved against it so forecast error has room
     to land, and it is raised to the live backlog when the buffer is
     already past it — the window must remain feasible from the state
     the controller is actually in. *)
  let plan_bound =
    match opt.Optimal.constraint_ with
    | Optimal.Buffer_bound b -> b
    | Optimal.Delay_bound _ ->
        invalid_arg "Online.run_receding: requires a Buffer_bound"
  in
  (* Compile the prior once; the controller re-solves up to once per
     slot against it. *)
  let beam = Beam.compile ~grid ~beam_width ~prior_weight prior in
  let predictions = Array.make n 0. in
  let pred = predictor ~initial:(Trace.frame trace 0 /. tau) in
  let rate = Rate_grid.quantize_up grid (pred.Predictor.forecast ()) in
  let m = monitor ~size ~rate in
  let segments = ref [ { Schedule.start_slot = 0; rate = m.in_force } ] in
  let pending = ref [] (* (effective_slot, rate), at most one in flight *) in
  let solves = ref 0 and infeasible_windows = ref 0 in
  let expanded = ref 0 and dropped = ref 0 and hits = ref 0 in
  let window = Array.make horizon 0. in
  for t = 0 to n - 1 do
    (match !pending with
    | (at, rate) :: rest when at <= t ->
        m.in_force <- rate;
        pending := rest;
        segments := { Schedule.start_slot = t; rate } :: !segments
    | _ -> ());
    let bits = Trace.frame trace t in
    step m ~tau ~bits;
    pred.Predictor.observe (bits /. tau);
    let forecast = pred.Predictor.forecast () in
    predictions.(t) <- forecast;
    (* Re-solve the lookahead window — every slot, or only when the
       buffer crosses a threshold (formula (8)'s trigger with the
       trellis replacing the quantized-forecast rule).  Never while a
       request is in flight: at most one outstanding renegotiation. *)
    if
      t + 1 < n
      && !pending = []
      && (resolve_every_slot || m.backlog > p.b_high || m.backlog < p.b_low)
    then begin
      (* The lookahead workload: [horizon] slots at the forecast rate,
         with the live backlog folded into the first slot so the solver
         must plan its drain. *)
      Array.fill window 0 horizon (forecast *. tau);
      window.(0) <- window.(0) +. m.backlog;
      let wtrace = Trace.create ~fps window in
      let wopt =
        {
          opt with
          Optimal.constraint_ =
            Optimal.Buffer_bound (Float.max plan_bound m.backlog);
        }
      in
      let start_level = Rate_grid.index_up grid m.in_force in
      incr solves;
      m.want <-
        (match Optimal.solve_raw ~beam ~start_level wopt wtrace with
        | schedule, base, c ->
            expanded := !expanded + base.Optimal.expanded;
            dropped := !dropped + c.Optimal.dropped_by_beam;
            hits := !hits + c.Optimal.prior_hits;
            (Schedule.segments schedule).(0).Schedule.rate
        | exception Optimal.Infeasible _ ->
            (* Even the top rate cannot hold the window's bound (the
               burst outruns the grid): fall back to flat out. *)
            incr infeasible_windows;
            Rate_grid.top grid);
      (* Formula (8)'s direction rule, with the trellis replacing the
         quantized forecast: act only when the buffer urges the move.
         [resolve_every_slot] is pure model-predictive mode — trust the
         solver outright (it already charges K for switching via
         [start_level]), at the price of chasing forecast noise. *)
      let act =
        if resolve_every_slot then not (Float.equal m.want m.requested)
        else urged p m
      in
      if act then begin
        let want = m.want in
        m.requested <- want;
        if delay_slots = 0 then begin
          m.in_force <- want;
          segments := { Schedule.start_slot = t + 1; rate = want } :: !segments
        end
        else pending := [ (t + 1 + delay_slots, want) ]
      end
    end
  done;
  let schedule =
    Schedule.create ~fps:(Trace.fps trace) ~n_slots:n (List.rev !segments)
  in
  ( { schedule; max_backlog = m.max_backlog; bits_lost = m.lost; predictions },
    {
      solves = !solves;
      infeasible_windows = !infeasible_windows;
      expanded = !expanded;
      dropped_by_beam = !dropped;
      prior_hits = !hits;
    } )

let run p trace =
  assert (p.ar_coefficient >= 0. && p.ar_coefficient < 1.);
  let predictor ~initial = Predictor.ar1 ~eta:p.ar_coefficient ~initial in
  run_custom p ~predictor trace

let run_delayed p ~delay_slots trace =
  assert (p.ar_coefficient >= 0. && p.ar_coefficient < 1.);
  let predictor ~initial = Predictor.ar1 ~eta:p.ar_coefficient ~initial in
  run_custom ~delay_slots p ~predictor trace

let schedule p trace = (run p trace).schedule
