(** Dynamic call-level simulation of measurement-based admission control
    (Section VI, Figs. 7-10).

    Calls arrive as a Poisson process; each admitted call plays a
    randomly phased copy of a reference RCBR schedule for one schedule
    duration and departs.  The link tracks the total demanded bandwidth
    [D(t)]; whenever [D > capacity] the excess is lost ("the source
    settles for whatever bandwidth remains"), and a renegotiation
    {e increase} that would push [D] above the capacity counts as
    denied.  Because calls are piecewise-CBR, only renegotiation events
    are simulated — the efficiency gain the paper points out in
    footnote 4.

    Since the [lib/net] refactor this module is a thin driver: the link
    state is an {!Rcbr_net.Link} on a {!Rcbr_net.Topology.single_link}
    and each call is an {!Rcbr_net.Store} handle played by the
    {!Rcbr_net.Session} signalling machine on the shared event engine,
    through the call steps every engine shares ({!Call_step}); only the
    MBAC-specific accounting (controller callbacks, window sampling)
    lives here.

    Sampling follows the paper: every interval of one schedule duration
    yields one sample of the renegotiation-failure probability (the
    fraction of demanded bits lost) and of the link utilization
    (granted bits / capacity); sampling stops when the 95% confidence
    interval of both is within 20% of the estimate, or when the failure
    estimate is confidently below [target], or at [max_windows].  The
    first window is warm-up and yields no sample. *)

type config = {
  schedule : Rcbr_core.Schedule.t;  (** reference call schedule *)
  capacity : float;  (** link capacity, b/s *)
  arrival_rate : float;  (** Poisson call arrivals per second *)
  target : float;  (** QoS target given to the controller *)
  seed : int;
  min_windows : int;  (** samples before the stopping rule may fire *)
  max_windows : int;  (** windows run at most, warm-up included *)
  faults : Rcbr_net.Session.faults;
      (** the signalling plane.  {!Rcbr_net.Session.no_faults} (the
          default) is reliable signalling, the historical behaviour: a
          plane with [rm_drop = 0.] never draws and never drops.  With
          [rm_drop > 0.] each renegotiation cell is dropped with
          [rm_drop] and retransmitted after [retx_timeout]; a newer rate
          change for the same call, or its departure, cancels the
          pending retransmission, and a departing call releases the rate
          the link actually believes — bandwidth stays conserved under
          any loss pattern.  Call setup is not signalled: the arrival
          settles it (admission already happened). *)
  service : Rcbr_policy.Service_model.t;
      (** what happens when a demanded rate does not fit (DESIGN.md
          §15).  [Renegotiate] (the default) is the seed's settle
          semantics; [Downgrade] grants the highest fitting ladder tier
          and restores downgraded calls on departures, in the order
          they were downgraded ({!Rcbr_net.Store.drain_upgrades});
          [Mts_profile] polices each change against a per-call
          token-bucket ladder attached at admission.  Every model runs
          one arrival path (Chernoff gate, then the draw, then
          {!Call_step.arrive}) and one rate-change path
          ({!Call_step.change}). *)
}

val default_config :
  schedule:Rcbr_core.Schedule.t ->
  capacity:float ->
  arrival_rate:float ->
  target:float ->
  seed:int ->
  config
(** min 10, max 200 windows, reliable signalling, [Renegotiate]
    service. *)

val offered_load : config -> float
(** Normalized offered load: [arrival_rate * duration * mean_rate
    / capacity] — Erlangs times mean rate over capacity. *)

type metrics = {
  failure_probability : float;  (** mean per-window bit-loss fraction *)
  failure_halfwidth : float;  (** 95% CI half-width *)
  utilization : float;  (** mean per-window granted / capacity *)
  utilization_halfwidth : float;
  call_blocking : float;  (** fraction of arrivals rejected *)
  denial_fraction : float;
      (** renegotiation increases denied / issued, by
          {!Rcbr_policy.Service_model.denial} *)
  mean_calls_in_system : float;
  windows : int;
  signalling_dropped : int;  (** RM cells lost to the fault plane; 0 without faults *)
  signalling_retransmits : int;
  signalling_abandoned : int;  (** changes applied only after give-up *)
  invariant_failures : int;
      (** conservation-audit violations; 0 unless [check_invariants]
          found a bookkeeping bug *)
  downgrades : int;
      (** admissions and changes granted below the demanded rate, one
          per decision (a call's setup counts once); 0 under
          [Renegotiate] *)
  upgrades : int;
      (** downgraded calls restored toward their demanded rate on
          spare-capacity events ([Downgrade] model only) *)
  admission : Rcbr_admission.Controller.stats;
      (** the controller's decision and solver counters at the end of
          the run — in particular [decision_hash], an order-sensitive
          hash of the admit/deny sequence used to check that runs are
          bit-identical across [-j] *)
}

val run : config -> controller:Rcbr_admission.Controller.t -> metrics

val run_many :
  ?pool:Rcbr_util.Pool.t ->
  (config * (unit -> Rcbr_admission.Controller.t)) array ->
  metrics array
(** One {!run} per entry, in input order, fanned out over the pool (the
    load x capacity grids of Figs. 7-10).  Each entry's controller is
    built inside its task by the factory — controllers are stateful and
    must not be shared.  Every run is a function of its config seed
    alone, so results are identical for any pool size. *)

val run_with_pieces :
  config ->
  make_pieces:(Rcbr_util.Rng.t -> (float * float) array) ->
  controller:Rcbr_admission.Controller.t ->
  metrics
(** Like {!run} but each admitted call's [(duration_s, rate)] pieces come
    from the given generator — e.g. randomly phased schedules perturbed
    by user interactivity ({!Interactive.pieces}).  The sampling window
    stays one schedule duration. *)

val shifted_pieces :
  Rcbr_core.Schedule.t -> shift:int -> (float * float) array
(** [(duration_s, rate)] pieces of a schedule played from a circular
    phase of [shift] slots, in order — the event list of one call.
    Exposed for tests and diagnostics. *)
