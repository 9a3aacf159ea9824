(** Admission controllers (Section VI).

    A controller is driven by the call-level simulator: it is asked for
    an admit/reject decision on every arrival and informed of every
    admitted call's renegotiations and departure, from which the
    measurement-based schemes build their view of "a typical call".

    All controllers share the same Chernoff admission rule — admit the
    new call iff [n + 1 <= max_calls(estimate, capacity, target)], i.e.
    iff the estimate with [n + 1] calls meets the target — and differ
    only in where the bandwidth-level distribution estimate comes from:

    - {!perfect}: the true marginal, known a priori;
    - {!memoryless}: the instantaneous rates of the calls currently in
      the system (the certainty-equivalent scheme shown not robust);
    - {!memory}: time-weighted histograms over the {e entire history} of
      every call currently in the system;
    - {!always_admit}: no control, for baselines.

    {1 The admission fast path (DESIGN.md §7)}

    The measurement-based estimates are maintained incrementally: rates
    are interned into a dense level table, and the controller keeps the
    finalized-history histogram plus the count and summed segment start
    time of the calls currently at each level, so that the time-weighted
    aggregate at time [now] is [hist + cur_count*now - since_sum] per
    level.  Arrival, renegotiation and departure each cost O(1)
    histogram updates; a decision materializes the marginal in O(levels)
    without allocation and decides with one Chernoff probe at [n + 1]
    calls ({!Rcbr_effbw.Chernoff.Solver.admits}) on a solver owned by
    the controller, not a search for the whole admission limit.

    The decision cache is keyed on the weight vector a decision loads:
    per key it keeps the largest number of calls known to fit and the
    smallest known not to, and a decision those bounds cover costs one
    O(levels) comparison and no probe.  The solver is a function of the
    weights, and the probe is monotone in the number of calls, so the
    admit/deny sequence is exactly the per-decision one.  A call
    admitted at [now] leaves the memory scheme's weights unchanged, so
    an arrival burst at one tick costs one probe and one warm
    {!Rcbr_effbw.Chernoff.Solver.max_calls} search in all.

    The decision sequence is property-tested against the seed's
    from-scratch rebuild — a per-call [(rate, weight)] list through the
    cold [Chernoff.max_calls] — kept as a test-only oracle. *)

type t

val name : t -> string

val admit : t -> now:float -> bool
(** Decision for a call arriving at [now], given the controller's
    current knowledge.  Does not mutate admission state (only decision
    counters); the simulator follows up with {!on_admit} only when the
    call is actually placed. *)

(** {1 Service models (DESIGN.md §15)} *)

val place :
  t -> Rcbr_policy.Service_model.t -> demanded:float -> fits:(float -> bool) ->
  Rcbr_policy.Service_model.decision
(** Where a call the gate admitted lands under the service model.  The
    engines run {!admit} first (one {!stats.decision_hash} record) and
    draw the call only when it admits, then [place] it.  Every model
    but [Downgrade] answers [Grant] and never probes [fits], so under
    [Renegotiate] the decision sequence is exactly {!admit}'s.  Under
    [Downgrade] a call that does not [fits] at its demanded rate gets
    the highest fitting ladder tier ([Downgrade_to]), or [Settle_floor]
    when no tier fits: an arrival holds no settle-floor right, so the
    caller blocks it, and the capacity rejection is recorded here as an
    extra deny. *)

(** {1 Calls in the system}

    [~call] is the caller's dense slot for the call: the engines and
    the switch daemon pass the call's [Rcbr_net.Store] handle.  The
    controller keeps each call's state in columns indexed by the slot,
    grown to the highest slot admitted, so they stay bounded by the
    peak population when slots are recycled.  A departed slot may be
    admitted again; renegotiating or departing a slot that holds no
    call is a no-op. *)

val on_admit : t -> now:float -> call:int -> rate:float -> unit
(** A call was placed on slot [call] (non-negative, holding no call)
    at [rate] at time [now]. *)

val on_renegotiate : t -> now:float -> call:int -> rate:float -> unit
(** The call's reserved rate changed to [rate] at time [now]. *)

val on_depart : t -> now:float -> call:int -> unit
(** The call left; its history leaves the estimate with it. *)

val n_in_system : t -> int
(** Calls admitted and not departed. *)

type stats = {
  decisions : int;  (** {!admit} calls *)
  admits : int;  (** of which answered [true] *)
  decision_hash : int;
      (** order-sensitive hash of the admit/deny sequence; equal hashes
          across runs mean identical decision sequences *)
  batch_hits : int;
      (** decisions answered from the stored bounds on the admission
          limit, with no probe and no search *)
  solver : Rcbr_effbw.Chernoff.Solver.stats;
}

val stats : t -> stats

val debug_aggregate_deviation : t -> now:float -> float
(** Maximum relative deviation, over levels, between the incremental
    time-weighted aggregate and a from-scratch rebuild, in slot order,
    from the per-call state at time [now].  Exact bookkeeping would give
    0; float summation order bounds it near machine epsilon.
    O(calls x levels) — debugging and property tests only. *)

val perfect : descriptor:Descriptor.t -> capacity:float -> target:float -> t
val memoryless : capacity:float -> target:float -> t
val memory : capacity:float -> target:float -> t
val always_admit : unit -> t
