(** The end-system network interface unit (Section III-A).

    "For such applications, we propose that an active component monitor
    the buffer between the application and the network and initiate
    renegotiations based on the buffer occupancy.  This monitor could be
    part of the session layer in an ISO protocol stack, or reside in the
    NIU for dumb endpoints."

    This module is that component, end to end: a live (online) source
    feeds its frames into a finite buffer; the monitor runs the paper's
    AR(1) + threshold rule; accepted rate changes are signaled through a
    real multi-hop {!Path} (which may deny them); denials are retried;
    grants take effect after a signaling round-trip.

    Every stream runs over a signalling plane described by {!faults}.
    Under {!no_faults} nothing goes wrong and the NIU is the paper's
    idealized exchange.  Under a lossy fault plan RM cells are dropped,
    duplicated, reordered and delayed, and ports crash and recover; the
    same NIU then behaves like a real transport endpoint — per-request
    timeouts, bounded retransmissions with exponential backoff and
    jitter, idempotent request ids so retransmitted or duplicated cells
    never double-apply at a switch, periodic absolute-rate resyncs to
    repair drift, and graceful degradation (ride out on buffer, settle
    for the ER-field rate, or scale quality) when renegotiation
    persistently fails.

    The buffer and the threshold rule are {!Rcbr_core.Online}'s
    {!Rcbr_core.Online.monitor}: an NIU on a path that never denies
    reproduces {!Rcbr_core.Online.run_custom} [~buffer ~delay_slots]
    bit for bit. *)

type degrade =
  | Ride_out  (** keep the old rate, absorb the burst in the buffer *)
  | Settle
      (** fall back to the grid level under the ER-field available rate
          (the paper's Section III-B feedback) *)
  | Scale of float
      (** Settle, and additionally shed this fraction of each offered
          frame at the source while starved — quality scaling with
          bits-lost accounting in [bits_scaled] *)

type faults = {
  plan : Rcbr_fault.Plan.t;  (** what the network does to RM cells *)
  timeout_slots : int;
      (** slots without a response before retransmitting; under a plan
          that can lose a cell it must exceed [delay_slots] so a healthy
          round-trip never times out *)
  max_retransmits : int;  (** per request, before giving up *)
  backoff : float;  (** timeout multiplier per retransmission (>= 1) *)
  jitter_slots : int;  (** uniform extra [0..jitter] slots per timeout *)
  resync_slots : int;  (** absolute-rate resync period; 0 disables *)
  degrade : degrade;  (** policy when renegotiation persistently fails *)
}

val default_faults : Rcbr_fault.Plan.t -> faults
(** timeout 8 slots, 6 retransmits max, backoff 2x with 2 slots of
    jitter, resync every 120 slots (5 s at 24 fps), Settle. *)

val no_faults : faults
(** The reliable signalling plane: {!default_faults} of a null plan with
    resync off.  Nothing is lost, so no timer is ever armed and no
    retransmission or resync cell is sent.  (A resyncing null plan
    re-sends the absolute rate, which at a rate off the port's
    arithmetic grid can move a port's reservation by a few ulps.) *)

type params = {
  online : Rcbr_core.Online.params;  (** monitor thresholds and predictor *)
  buffer : float;  (** end-system buffer, bits; overflow is lost *)
  delay_slots : int;  (** signaling round-trip before a grant bites *)
  retry_slots : int option;  (** re-issue a denied request after this many
                                 slots ([None]: wait for the next trigger) *)
  faults : faults;  (** the signalling plane; {!no_faults} by default *)
}

val default_params : params
(** Paper values: default online parameters, 300 kb buffer, no signaling
    delay, retry after 1 s (24 slots), {!no_faults}. *)

type fault_report = {
  retransmits : int;  (** cells re-sent after a timeout *)
  timeouts : int;  (** request deadlines that expired *)
  give_ups : int;  (** requests abandoned after [max_retransmits] *)
  resyncs : int;  (** periodic absolute-rate repair cells sent *)
  degraded_slots : int;  (** slots spent with an unsatisfied want *)
  bits_scaled : float;  (** bits shed at the source by [Scale] *)
  worst_retransmits : int;  (** most retransmissions any request needed *)
  crashes : int;
  recoveries : int;
  cells : Rcbr_fault.Injector.totals;  (** faults actually injected *)
  invariant_violations : int;
      (** reservation-conservation violations detected on the path's
          ports at the end of the run (0 unless there is a bug) *)
  final_drift : float;
      (** worst per-hop gap, in b/s, between a port's belief about this
          VCI and the source's granted rate — leaked reservations not
          yet repaired by resync *)
}

type outcome = {
  schedule : Rcbr_core.Schedule.t;  (** rates actually in force *)
  bits_offered : float;
  bits_lost : float;  (** buffer-overflow loss *)
  max_backlog : float;
  attempts : int;  (** renegotiation requests signaled *)
  failures : int;  (** requests the network denied *)
  mean_reserved : float;  (** time-average in-force rate, b/s *)
  faults : fault_report;
      (** under {!no_faults} only [degraded_slots] and [cells.sent] can be
          nonzero *)
}

val stream : params -> path:Path.t -> Rcbr_traffic.Trace.t -> outcome
(** Stream a live source across the path.  The path must already hold a
    reservation (its current {!Path.rate} is the starting service rate);
    on return it holds the final renegotiated rate (the caller tears it
    down).  Requires positive [buffer] and nonnegative [delay_slots].
    A null plan of any length runs on the path's {!Path.hops}; a plan
    that can lose a cell must cover exactly {!Path.hops} hops and needs
    [timeout_slots > delay_slots]. *)
