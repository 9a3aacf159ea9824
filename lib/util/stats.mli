(** Descriptive statistics and confidence intervals.

    The simulation experiments in the paper stop sampling when the 95%
    confidence interval of an estimated probability is within 20% of the
    estimate (Section V-B); {!Online} provides exactly that machinery. *)

(** Online (streaming) moments via Welford's algorithm. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased; 0 when fewer than two samples. *)

  val stddev : t -> float

  val confidence_halfwidth : t -> float
  (** Half-width of the normal-approximation 95% confidence interval of
      the mean: [1.96 * stddev / sqrt count]; [infinity] when fewer than
      two samples. *)

  val relative_precision : t -> float
  (** [confidence_halfwidth / |mean|]; [infinity] when the mean is 0 or
      samples are scarce.  The paper's stopping rule is
      [relative_precision <= 0.2]. *)
end
