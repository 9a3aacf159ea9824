(** Call traffic descriptors for admission control (Section VI).

    A call is described by the fraction of time it spends at each
    bandwidth level of a common level table; the Chernoff approximation
    (formula (12)) turns that histogram plus the link capacity into the
    maximum number of admissible calls. *)

type t

val create : levels:float array -> fractions:float array -> t
(** [levels] are the bandwidth values (b/s, ascending); [fractions] are
    nonnegative time fractions summing to 1 (within 1e-6). *)

val of_schedule : Rcbr_core.Schedule.t -> t
(** Empirical distribution of a schedule's rate levels — exact for
    stored video (the paper notes interactivity blurs it). *)

val to_marginal : t -> Rcbr_effbw.Chernoff.marginal

val max_admissible : t -> capacity:float -> target:float -> int
(** Formula (12): the largest call count whose estimated renegotiation
    failure probability stays below [target] on a link of [capacity]
    b/s.  Note this deliberately rejects calls even when capacity is
    free — the slack guards against demand fluctuations of calls
    already admitted. *)
