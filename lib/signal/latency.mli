(** Signaling latency effects on RCBR schedules (Section III-C).

    A renegotiation takes effect only after the signaling round-trip (or,
    piggybacked on RSVP refreshes, at the next refresh instant).  Rate
    {e increases} that arrive late let the end-system buffer grow; this
    module transforms a schedule into the one actually in force and
    measures the damage.  Offline sources compensate by renegotiating
    early ({!anticipate}); online sources cannot. *)

val delay : Rcbr_core.Schedule.t -> seconds:float -> Rcbr_core.Schedule.t
(** Every rate change takes effect [seconds] later (rounded up to whole
    slots).  Changes pushed past the end of the connection are dropped;
    the initial rate is unchanged.  Requires [seconds >= 0]. *)

val anticipate : Rcbr_core.Schedule.t -> seconds:float -> Rcbr_core.Schedule.t
(** Offline compensation: issue every change [seconds] early (clamped to
    slot 0, where it merges into the initial rate). *)

val align_to_refresh :
  Rcbr_core.Schedule.t -> period_s:float -> Rcbr_core.Schedule.t
(** RSVP piggyback model: a change requested at [t] takes effect at the
    next refresh instant (multiples of [period_s], starting at 0).
    Changes mapping to the same refresh collapse to the latest request.
    Requires [period_s > 0]. *)
