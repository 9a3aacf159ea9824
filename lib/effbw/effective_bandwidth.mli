(** Effective / equivalent bandwidth of Markov-modulated sources
    (Section V-A).

    For a Markov additive process with per-slot log moment generating
    function [Lambda(theta)] (the log spectral radius of
    [diag(e^{theta r}) P]), the large-buffer estimate of the overflow
    probability of a buffer [B] drained at rate [c] is
    [exp(-theta_star B)] where [Lambda(theta_star)/theta_star = c].
    Conversely the
    {e equivalent bandwidth} for buffer [B] and loss target [L] is
    [Lambda(theta)/theta] at [theta = -ln L / B].

    All rates and buffer sizes here are in data units per slot / data
    units; callers convert to b/s with the slot duration. *)

val log_mgf : Rcbr_markov.Modulated.t -> theta:float -> float
(** [Lambda(theta)] per slot.  [Lambda(0) = 0]; requires finite
    [theta]. *)

val effective_bandwidth : Rcbr_markov.Modulated.t -> theta:float -> float
(** [Lambda(theta)/theta] for [theta > 0]; tends to the mean rate as
    [theta -> 0] and to the peak rate as [theta -> infinity]. *)

val equivalent_bandwidth :
  Rcbr_markov.Modulated.t -> buffer:float -> target_loss:float -> float
(** Minimum drain rate (data/slot) for overflow probability
    [<= target_loss] with buffer [buffer] (data units), by the
    large-buffer estimate.  Requires [buffer > 0] and
    [0 < target_loss < 1]. *)

val multiscale_equivalent_bandwidth :
  Rcbr_markov.Multiscale.t -> buffer:float -> target_loss:float -> float
(** Formula (9): the equivalent bandwidth of a multiple time-scale source
    is the {e maximum} over its subchains of their equivalent bandwidths
    in isolation — the worst-case subchain dominates. *)

val subchain_equivalent_bandwidths :
  Rcbr_markov.Multiscale.t -> buffer:float -> target_loss:float -> float array
(** The per-subchain values whose max is formula (9); also the rates an
    ideal RCBR source renegotiates to on entering each subchain
    (Section V-A, RCBR scenario). *)
