(** Causal renegotiation heuristic for interactive sources
    (Section IV-B).

    The rate predictor is an AR(1) filter on the observed arrival rate
    plus a flush term that would empty the current backlog within the
    time constant [T] (formula (6)):

    {v chat(t) = eta * chat(t-1) + (1 - eta) * x(t)
   rhat(t) = chat(t) + B(t)/T v}

    The flush term sits outside the filter so that a draining backlog
    does not inflate future estimates.  The prediction is rounded up to a multiple of the bandwidth
    granularity Delta (formula (7)), and a renegotiation is issued only
    when the buffer crosses a threshold in the direction of the change
    (formula (8)): above [b_high] and the quantized prediction exceeds
    the current rate, or below [b_low] and it is lower. *)

type params = {
  b_low : float;  (** lower buffer threshold, bits (paper: 10 kb) *)
  b_high : float;  (** upper buffer threshold, bits (paper: 150 kb) *)
  flush_slots : int;  (** T of formula (6), in slots (paper: 5 frames) *)
  granularity : float;  (** Delta, b/s (paper sweeps 25..400 kb/s) *)
  ar_coefficient : float;  (** eta of the AR(1) filter *)
  use_flush_term : bool;  (** ablation switch for the B(t)/T term *)
}

val default_params : params
(** Paper values: b_low 10 kb, b_high 150 kb, T = 5 frames,
    Delta = 100 kb/s, eta = 0.9, flush term on. *)

type outcome = {
  schedule : Schedule.t;
  max_backlog : float;  (** peak end-system buffer occupancy, bits *)
  bits_lost : float;
      (** overflow loss; always 0 without a [buffer] cap *)
  predictions : float array;  (** chat(t) per slot, for diagnostics *)
}

(** {2 The buffer monitor (Section III-A)}

    "We propose that an active component monitor the buffer between the
    application and the network and initiate renegotiations based on
    the buffer occupancy."  This is its state and its per-slot
    operation.  {!run_custom} and {!Rcbr_signal.Niu.stream} run
    {!slot}; {!run_receding} runs the same buffer step under its own
    rule.  So the buffer accounting and formulas (6)–(8) exist once. *)

type monitor = {
  size : float;  (** buffer capacity, bits; [infinity] when unbounded *)
  mutable backlog : float;  (** B(t), bits *)
  mutable max_backlog : float;  (** peak backlog so far, bits *)
  mutable lost : float;  (** bits spilled past [size] so far *)
  mutable in_force : float;  (** rate serving the buffer, b/s *)
  mutable requested : float;
      (** rate last asked of (and granted by) the network, b/s — the
          reference of formula (8); it leads [in_force] while a grant is
          in its signalling round-trip *)
  mutable prediction : float;
      (** rhat(t) of formula (6) at the last {!slot}, b/s *)
  mutable want : float;
      (** the quantized prediction (formula (7)), or the caller's
          candidate rate, b/s *)
}
(** All fields are floats, so the record is stored flat and per-slot
    updates do not allocate. *)

val monitor : size:float -> rate:float -> monitor
(** An empty buffer of [size] bits served at [rate], which is also the
    requested rate and the initial [want]. *)

val slot :
  params -> monitor -> tau:float -> bits:float -> forecast:float -> bool
(** One slot of length [tau].  The buffer step: [bits] arrive and
    [in_force *. tau] drain, the backlog is clamped to [0, size] with
    the spill counted in [lost], and [max_backlog] follows.  Then
    formulas (6)–(8) on the predictor's [forecast], taken after it
    observed this slot: set [prediction] to [forecast] plus the flush
    term [backlog / T] (when [use_flush_term]), set [want] to it rounded
    up to a multiple of [granularity], and say whether the buffer urges
    a move to [want] — above [b_high] and [want > requested], or below
    [b_low] and [want < requested].  Whether a request may go out (one
    in flight, a retry timer) is the caller's business. *)

val quantize_down : params -> float -> float
(** The largest multiple of [granularity] at or below a rate — what a
    source settles for when a denying switch's ER field offers that
    rate (Section III-B). *)

val run : params -> Rcbr_traffic.Trace.t -> outcome
(** Simulate the heuristic over a trace.  The initial rate is the
    quantized first prediction and does not count as a renegotiation. *)

val schedule : params -> Rcbr_traffic.Trace.t -> Schedule.t
(** [run] without the diagnostics. *)

val run_custom :
  ?delay_slots:int ->
  ?buffer:float ->
  params ->
  predictor:(initial:float -> Predictor.t) ->
  Rcbr_traffic.Trace.t ->
  outcome
(** Same machinery — flush term, quantization, buffer-threshold gating —
    with a caller-supplied rate predictor (see {!Predictor}); [initial]
    is the first slot's rate.  [run] is
    [run_custom ~predictor:(Predictor.ar1 ~eta:ar_coefficient)].

    [buffer] (default: unbounded) caps the backlog at the end-system
    buffer size; the spill is accounted in [bits_lost].  The slot loop
    runs the {!monitor} that {!Rcbr_signal.Niu} runs, so an uncontended
    NIU and [run_custom ?buffer ~delay_slots] agree bit for bit by
    construction.

    [delay_slots] (default 0) models the signaling round-trip of
    Section III-C: a granted renegotiation only takes effect that many
    slots after it is issued, so the buffer keeps filling at the old
    rate meanwhile — the unresolved question the paper flags ("we do
    not yet have ... simulation results studying the effect of
    renegotiation delay").  At most one request is outstanding at a
    time; the threshold rule compares against the {e requested} rate so
    the source does not flood the signaling channel. *)

val run_delayed : params -> delay_slots:int -> Rcbr_traffic.Trace.t -> outcome
(** [run] with a signaling delay. *)

(** {2 Receding-horizon control (DESIGN.md §13)}

    Instead of quantizing the forecast (formula (7)), re-solve the
    renegotiation trellis over a short lookahead window each time the
    buffer urges a move, and request the window-optimal first rate —
    near-optimal schedules at interactive rates when the beam keeps the
    per-window work bounded on fine grids. *)

type receding_stats = {
  solves : int;  (** lookahead windows solved *)
  infeasible_windows : int;
      (** windows whose backlog even the top rate could not drain within
          the constraint; the controller fell back to the top rate *)
  expanded : int;  (** trellis nodes expanded, summed over windows *)
  dropped_by_beam : int;
  prior_hits : int;
}

val run_receding :
  ?delay_slots:int ->
  ?buffer:float ->
  ?resolve_every_slot:bool ->
  ?beam_width:int ->
  ?prior:Beam.prior ->
  params ->
  opt:Optimal.params ->
  horizon:int ->
  predictor:(initial:float -> Predictor.t) ->
  Rcbr_traffic.Trace.t ->
  outcome * receding_stats
(** Receding-horizon controller over the beam trellis.  Per slot:
    account arrivals/service/loss exactly as {!run_custom}, feed the
    predictor, and — when no request is in flight and either
    [resolve_every_slot] (default false) or the backlog sits outside
    [b_low, b_high] — build a [horizon]-slot workload of forecast-rate
    arrivals with the live backlog folded into the first slot, solve it
    through {!Optimal.solve_raw} at [beam_width] (default 16) and
    {!Beam.default_prior_weight}, starting from the rate in force ([start_level], so staying is free and
    switching pays one renegotiation), and take the solution's first
    rate as the candidate request.  The request is issued under formula
    (8)'s direction rule (above [b_high] and the candidate is higher, or
    below [b_low] and lower); in [resolve_every_slot] mode the solver is
    trusted outright and any change is requested — pure MPC, at the
    price of chasing forecast noise.

    [opt]'s constraint must be a [Buffer_bound]; it is the {e planning}
    headroom (typically well under the physical [buffer] so forecast
    error has room to land), raised per window to the live backlog when
    the buffer is already past it.  At most one request is outstanding;
    [delay_slots]/[buffer] compose exactly as in {!run_custom}.
    [granularity], [flush_slots] and [ar_coefficient] of [params] are
    unused — the trellis replaces quantization, the backlog enters the
    window explicitly, and the predictor is the caller's.
    [outcome.predictions] holds the raw forecasts. *)
