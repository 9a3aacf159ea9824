(** Beam-searched probabilistic trellis (DESIGN.md §13).

    The exact solver ({!Optimal}) expands the full dominance frontier;
    on fine rate grids (M ≳ 100 levels) the frontier grows into the tens
    of thousands of nodes per slot and the solve falls out of the
    interactive regime.  This module trades bounded optimality for
    bounded work: keep only the [beam_width] best candidate states per
    stage, ranked by [path_cost - prior_weight * log_prior], where the
    prior is a per-level transition log-probability table learned from
    the rate-level occupancy and transition counts of a training trace
    (or a {!Rcbr_markov.Chain}) — the soft-decision pruned-trellis
    technique of codec2's [trellis.m].

    Feasibility is never approximated: the globally lowest-buffer node
    survives every selection, and buffer evolution is monotone in the
    buffer, so {!Optimal.Infeasible} is raised iff the exact solver
    would raise it.

    With [beam_width = max_int] and a {!Uniform} prior the beam solver
    is bit-identical to {!Optimal.solve_with_stats} (enforced by a
    qcheck property): the selection never triggers and the uniform
    prior gives every stage-t node the same cumulative log prior. *)

module Histogram := Rcbr_util.Histogram

type prior =
  | Uniform  (** every transition equally likely — the degenerate
                 fallback; ranking reduces to plain path weight *)
  | Table of {
      levels : int;  (** grid size the prior was trained against *)
      init : Histogram.t;  (** rate-level occupancy counts *)
      trans : Histogram.t array;
          (** [trans.(a)]: counts of a->b level transitions *)
    }

val of_trace : grid:Rate_grid.t -> Rcbr_traffic.Trace.t -> prior
(** Learn occupancy and transition counts from a training trace: each
    slot's level is the smallest grid rate covering its arrival rate
    ({!Rate_grid.index_up}). *)

val of_chain :
  grid:Rate_grid.t -> rates:float array -> Rcbr_markov.Chain.t -> prior
(** Learn the prior from a Markov traffic model instead of a trace:
    state [s] (rate [rates.(s)], in b/s) maps to its covering grid
    level, and the s->s' transition adds stationary-weighted mass
    [pi(s) * P(s, s')].  Raises [Invalid_argument] if [rates] and the
    chain disagree on the state count. *)

(** {2 The [--beam-prior] flag}

    One grammar for every CLI that picks a prior:
    [trace | chain | uniform]. *)

type prior_spec =
  | Prior_trace  (** {!of_trace} on the trace being solved *)
  | Prior_chain
      (** {!of_chain} on the Star Wars Markov model (Section V-A) that
          {!Rcbr_traffic.Synthetic} calibrates, flattened to one chain *)
  | Prior_uniform  (** {!Uniform} *)

val prior_spec_of_string : string -> (prior_spec, string) result
(** Parse a [--beam-prior] value; the [Error] is the message a CLI
    shows for an unknown name. *)

val pp_prior_spec : Format.formatter -> prior_spec -> unit
(** Inverse of {!prior_spec_of_string}. *)

val prior_of_spec :
  grid:Rate_grid.t -> Rcbr_traffic.Trace.t -> prior_spec -> prior
(** The prior a spec names, for solving [trace] on [grid]. *)

val compile :
  grid:Rate_grid.t ->
  beam_width:int ->
  prior_weight:float ->
  prior ->
  Optimal.beam_opts
(** Materialize a prior into the log tables {!Optimal.solve_raw}
    consumes.  Empty bins are floored at log 1e-9 (steep but finite, so
    the beam can follow traffic off the prior's support — see
    {!Rcbr_util.Histogram.log_mass}).  Raises [Invalid_argument] if a
    {!Table} prior was trained on a different grid size, or if
    [beam_width < 1].  Compile once and reuse across solves: the
    receding-horizon controller calls the solver thousands of times
    against one compiled prior. *)

val default_prior_weight :
  Optimal.params -> Rcbr_traffic.Trace.t -> float
(** One nat of log-prior ≙ one mean slot of allocated bandwidth:
    [bandwidth_cost * mean_rate * slot_duration]. *)

type stats = {
  base : Optimal.stats;
  kept : int;  (** nodes surviving beam selection, summed over stages *)
  dropped_by_beam : int;
  prior_hits : int;  (** expansions along prior-observed transitions *)
}

val solve_with_stats :
  beam_width:int ->
  prior:prior ->
  Optimal.params ->
  Rcbr_traffic.Trace.t ->
  Schedule.t * stats
(** Beam-searched {!Optimal.solve_with_stats}, ranked at
    {!default_prior_weight}.  May raise {!Optimal.Infeasible} — exactly
    when the exact solver would.  (The receding-horizon controller
    compiles its prior once and calls {!Optimal.solve_raw} with a
    [start_level] instead.) *)
