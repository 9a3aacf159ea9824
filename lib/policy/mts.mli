(** Multi-timescale bandwidth profile: a ladder of token buckets, one
    per time scale, policing the demanded rate of a call (after
    arXiv 1903.08075, "Multi timescale bandwidth profile and its
    application for burst-aware fairness").

    Each scale [i] is a fluid {!Rcbr_traffic.Token_bucket} with token
    rate [rates.(i)] (b/s) and burst allowance [depths.(i)] (bits).
    Short scales carry high rates and shallow buckets (they bound
    bursts), long scales low rates and deep buckets (they bound the
    sustained average).  A call that stays under every scale's
    sustained rate is never policed; a burst spends the stored credit
    of the short scales first and is clipped once any scale runs dry.

    The profile is stateless; per-call bucket state comes from
    {!attach} and is threaded through {!police} by the call store
    ({!Rcbr_net.Store.decide}). *)

type profile = {
  rates : float array;  (** sustained token rate per scale, b/s *)
  depths : float array;  (** burst allowance per scale, bits *)
  quantum : float;
      (** policing quantum, seconds: stored credit converts to grantable
          rate as [tokens / quantum] *)
}

val validate : profile -> unit
(** Asserts equal ladder lengths, a positive quantum and nonnegative
    rates/depths. *)

val ladder : scales:int -> quantum:float -> mean:float -> peak:float -> profile
(** Generic ladder between a peak and a mean rate: scale 0 polices the
    shortest time scale at [peak] with one quantum of credit, the last
    scale polices the long-run [mean]; rates interpolate linearly and
    characteristic times grow x4 per scale. *)

val of_schedule : Rcbr_core.Schedule.t -> scales:int -> base_window:int -> profile
(** Profile derived from a trellis schedule: scale [i] polices windows
    of [base_window * 4^i] slots at the largest average rate the
    schedule itself sustains over any such window, with one window of
    burst-above-rate credit — so the deriving schedule always
    conforms. *)

val attach : profile -> Rcbr_traffic.Token_bucket.t array
(** Fresh per-call bucket ladder, every bucket full. *)

val police : profile -> Rcbr_traffic.Token_bucket.t array ->
  elapsed:float -> applied:float -> demanded:float -> float
(** [police p buckets ~elapsed ~applied ~demanded] settles the
    [elapsed] seconds spent at the [applied] rate against every bucket
    (tokens accrue at the profile rate and drain at the applied rate;
    an overdrawn bucket empties, it carries no debt), then returns the
    granted rate: [demanded] clipped to what every scale can sustain
    for one quantum.  Deterministic, float-order fixed. *)
