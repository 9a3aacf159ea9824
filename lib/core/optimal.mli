(** Optimal offline renegotiation schedules (Section IV-A).

    Given complete knowledge of the arrival process, find the
    piecewise-CBR service-rate function minimizing

    {v cost = reneg_cost * (#rate changes)
         + bandwidth_cost * (total service bits) v}

    subject to the end-system buffer never exceeding its bound (or, in
    the delay variant, every bit leaving within a deadline — formula
    (5)).  The solver is the paper's Viterbi-like shortest path on the
    trellis of (time, rate level, buffer occupancy) nodes, with the
    Lemma 1 dominance rule: a node is pruned when another node exists
    with no larger buffer and weight smaller even after paying one extra
    renegotiation — which prunes {e across} rate levels, not only within
    them.

    The implementation keeps, per rate level, the Pareto frontier of
    (buffer, weight) pairs plus a global frontier for the cross-level
    rule.  A slot shifts each level's frontier within its level and the
    global frontier to every level, then merges the level frontiers
    into the next global one, so it costs O(frontier + levels x global
    size), where frontier counts the nodes of all levels. *)

type constraint_ =
  | Buffer_bound of float  (** maximum backlog in bits, formula (2) *)
  | Delay_bound of int  (** maximum queueing delay in slots, formula (5) *)

type params = {
  grid : Rate_grid.t;
  reneg_cost : float;  (** K >= 0, cost per renegotiation *)
  bandwidth_cost : float;  (** c > 0, cost per bit of allocated service *)
  constraint_ : constraint_;
}

type stats = {
  slots : int;
  expanded : int;  (** candidate nodes generated over the whole run *)
  max_frontier : int;  (** peak number of surviving nodes in any slot *)
  pruned_by_lemma : int;
      (** nodes dropped by the cross-level Lemma 1 rule *)
  pruned_by_cap : int;  (** nodes dropped by [frontier_cap] subsampling *)
}

exception Infeasible of int
(** No rate level can respect the constraint at the given slot (the
    grid's top rate is too small for the workload). *)

val solve : params -> Rcbr_traffic.Trace.t -> Schedule.t
(** May raise {!Infeasible}. *)

val solve_with_stats :
  ?lemma_pruning:bool ->
  ?frontier_cap:int ->
  params ->
  Rcbr_traffic.Trace.t ->
  Schedule.t * stats
(** [lemma_pruning] (default true) toggles the cross-level Lemma 1 rule;
    with it off only plain per-level Pareto pruning applies — same
    optimum, larger frontiers.  [frontier_cap] (default: unbounded)
    subsamples each level's Pareto frontier down to the given size:
    retained paths keep exact buffers and costs, so feasibility is never
    compromised and the error does not compound; this is the knob for
    small cost ratios that make the exact frontier explode (the paper
    reports the same blowup).  Both knobs are exercised by the ablation
    benchmarks. *)

(** {2 Beam-search internals}

    The user-facing beam API is {!Beam}; the raw entry point lives here
    so the beam shares this module's structure-of-arrays frontier and
    pruning machinery verbatim (with the beam off, [solve_raw] {e is}
    [solve_with_stats], bit for bit). *)

type beam_opts = {
  width : int;  (** max surviving nodes per stage, across all levels *)
  log_init : float array;  (** per-level log prior of the first slot *)
  log_trans : float array array;
      (** [log_trans.(a).(b)]: log prior of an a->b level transition *)
  observed : bool array array;
      (** whether the prior actually saw the transition (vs the
          smoothing floor); hits are counted per expansion *)
  prior_weight : float;
      (** cost units per nat of log prior in the ranking score
          [weight - prior_weight * log_prior] *)
}

type beam_counters = {
  kept : int;  (** nodes surviving beam selection, summed over stages *)
  dropped_by_beam : int;  (** nodes cut by beam selection *)
  prior_hits : int;  (** expansions along prior-observed transitions *)
}

val solve_raw :
  ?lemma_pruning:bool ->
  ?frontier_cap:int ->
  ?beam:beam_opts ->
  ?start_level:int ->
  params ->
  Rcbr_traffic.Trace.t ->
  Schedule.t * stats * beam_counters
(** [solve_with_stats] plus two extensions used by {!Beam} and the
    receding-horizon controller: [beam] keeps only the [width]
    best-scoring nodes per stage (the globally lowest-buffer node is
    always retained, so feasibility is decided exactly — see DESIGN.md
    §13), and [start_level] marks one grid level as the rate already in
    force, charging every {e other} initial level one renegotiation.
    Without [beam] the counters are [kept = 0] (no selection ran). *)

val default_params :
  ?levels:int -> ?buffer:float -> cost_ratio:float -> Rcbr_traffic.Trace.t -> params
(** Paper-flavoured defaults: a uniform grid of [levels] (default 20)
    rates from 48 kb/s to max(2.4 Mb/s, a rate covering the trace for
    the given buffer), buffer bound [buffer] (default 300 kb), unit
    bandwidth cost and [reneg_cost = cost_ratio] (the paper's alpha
    = K/c, in bits). *)
