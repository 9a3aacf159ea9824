(** Chernoff estimates for bufferless statistical multiplexing
    (formulas (10)-(12) of the paper).

    Each of [n] independent calls spends a fraction [p_i] of its time
    demanding bandwidth [e_i]; the probability that the total demand
    exceeds the link capacity [C = n*c] is estimated as
    [exp (-n * I(c))] where [I] is the Legendre transform of the log-MGF
    of the per-call demand.  This is the loss estimate of the shared
    buffer scenario (with [e_i] the subchain mean rates) and the
    renegotiation-failure estimate of RCBR (with [e_i] the subchain
    equivalent bandwidths), and the admission-control test of
    Section VI. *)

type marginal = (float * float) array
(** [(probability, bandwidth)] pairs.  Probabilities must be
    nonnegative and sum to 1 (within 1e-6). *)

val mean : marginal -> float
val max_level : marginal -> float

val log_mgf : marginal -> theta:float -> float
(** [log sum_i p_i exp(theta e_i)], computed stably. *)

val rate_function : marginal -> float
  -> float
(** [rate_function m c] = [sup_theta (theta*c - log_mgf m theta)] over
    [theta >= 0].  Zero for [c <= mean m]; [+infinity] for
    [c > max_level m] (and for [c = max_level] it equals
    [-log P(max)]). *)

val overflow_estimate : marginal -> n:int -> capacity_per_call:float -> float
(** [exp (-n * rate_function m c)], the Chernoff estimate of
    [P(sum of n iid demands > n*c)].  Requires [n > 0]. *)

val capacity_for_target : marginal -> n:int -> target:float -> float
(** Smallest per-call capacity [c] whose {!overflow_estimate} is
    [<= target], within a relative tolerance of 1e-6.  Requires [0 < target < 1].  Returns [max_level] if even
    that cannot meet the target (it always can, conservatively). *)

val max_calls : marginal -> capacity:float -> target:float -> int
(** Formula (12) turned into an admission limit: the largest [n] such
    that [overflow_estimate ~n ~capacity_per_call:(capacity /. n) <= target].
    0 when even one call misses the target; [max_int] when the mean is
    [<= 0].  The search never looks past [floor (capacity /. mean) + 1]
    calls, clamped to [2^60], which is therefore the answer for a mean
    that is a vanishing fraction of the capacity. *)

(** Reusable warm-started solver — the admission fast path.

    A solver owns a quantized log-MGF table (per-level bandwidth and
    cached log-probability in flat arrays, refilled in place), an
    allocation-free {!Solver.log_mgf}, warm-start state for the theta*
    bracket, the certificate's theta and the {!Solver.max_calls} integer
    search, and the one-probe admission test {!Solver.admits}.

    Every admission probe ("do [n] calls fit?") is first put to a
    certificate, which decides it without maximizing the rate
    function.  With f(theta) = theta c - log_mgf theta, c = capacity /
    n and L = -log target / n, the calls fit iff sup f >= L.  Newton
    steps on f', started from the previous probe's theta* and each one
    allocation-free pass over the levels, find either a theta with
    f(theta) above L, or a bracket around theta* whose two tangents meet
    below L (f is concave, so the meeting value bounds sup f).  Both
    tests clear L by a proven margin that covers the rounding of both
    paths and the shortfall of golden section (derived in
    [chernoff.ml]); inside that band, and in the cases the proof does not
    cover, the probe falls back to golden section and counts a
    {!Solver.stats} [fallbacks].  A certified probe costs 1-3 passes; a
    golden-section solve costs about 48 log-MGF evaluations.

    Numerical contract: for the same marginal, every solver query
    returns the {e exact} float (and hence the exact admit/deny
    decision) of the corresponding cold module-level function above.
    The warm starts only change which intermediate points are probed:
    the theta bracket walks to the same minimal power of two the cold
    doubling scan finds (the set of decreasing-objective powers of two
    is upward closed for a concave objective), the certificate's start
    changes only the Newton path, and the integer search gallops out
    from the previous answer before bisecting the same monotone
    predicate.  When a hint is wrong the search degrades to the cold
    scan, never to a different answer.

    Typical uses: an admission controller loads the current aggregate
    histogram into its solver and decides each arrival with one
    {!Solver.admits} probe (see [Rcbr_admission.Controller]); a
    capacity sweep builds one solver per marginal and reuses it across
    all [n] / capacity / target queries. *)
module Solver : sig
  type t

  val create : unit -> t
  (** Empty solver; load a distribution before querying. *)

  val of_marginal : marginal -> t
  val set_marginal : t -> marginal -> unit
  (** Refill the table from a validated marginal (entries with [p = 0]
      are skipped), keeping warm-start state and scratch storage. *)

  val reset : t -> unit
  (** Begin an incremental weighted load: {!reset}, then {!push} each
      (level, weight) pair, then {!commit_weighted}. *)

  val push : t -> level:float -> weight:float -> unit
  (** Append a level with a raw nonnegative weight; zero-weight levels
      are skipped.  Only valid between {!reset} and {!commit_weighted}. *)

  val commit_weighted : t -> unit
  (** Normalize the pushed weights into probabilities (requires positive
      total weight) and finish the load. *)

  val n_levels : t -> int
  val mean : t -> float
  val max_level : t -> float

  val log_mgf : t -> theta:float -> float
  (** Bit-identical to {!val:log_mgf} on the loaded distribution;
      allocation-free. *)

  val rate_function : t -> float -> float
  val overflow_estimate : t -> n:int -> capacity_per_call:float -> float
  val capacity_for_target : t -> n:int -> target:float -> float

  val admits : t -> capacity:float -> target:float -> calls:int -> bool
  (** Section VI's admission test for one more call: whether the
      Chernoff estimate with [calls + 1] calls sharing [capacity] meets
      [target].  Equal to [calls + 1 <= max_calls t ~capacity ~target]
      for every [calls >= 0], but decided with one admission-predicate
      probe instead of a search (the predicate is monotone in the
      number of calls).  The probe is decided by the certificate, or by
      golden section inside its band; either way the verdict is the
      cold estimate's.  [true] when the mean is [<= 0]. *)

  val max_calls : t -> capacity:float -> target:float -> int
  (** Warm-started admission limit; equal to {!val:max_calls} on the
      loaded distribution for every (capacity, target).  Gallops out
      from the previous answer, then bisects; each probe goes through the
      same certificate as {!admits}.  For capacity sweeps and the SMG; an
      admission decision needs only {!admits}. *)

  type stats = {
    mgf_evals : int;
        (** log-MGF evaluations (the innermost kernel); a certificate pass
            counts as one *)
    fits_evals : int;  (** admission-predicate probes, {!admits} and searches *)
    queries : int;  (** rate-function queries *)
    fallbacks : int;
        (** probes with mean < c <= top that the certificate left to
            golden section *)
  }

  val stats : t -> stats
  (** Cumulative counters since {!create}; cheap to read.  [fits_evals]
      depends only on the verdicts, so the certificate leaves it as
      golden section alone would; [mgf_evals] and [fallbacks] show what
      the probes cost. *)
end
