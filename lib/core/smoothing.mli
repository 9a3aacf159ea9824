(** Optimal smoothing baseline (related work, Sections VII-VIII).

    The main alternative to renegotiation for stored video is {e optimal
    smoothing} (Salehi, Kurose, Towsley et al.): given the whole trace
    and a buffer of [B] bits, transmit along the {e taut string} threaded
    through the feasibility band

    {v A(t) - B <= S(t) <= A(t) v}

    where [A] is cumulative arrivals and [S] cumulative service.  The
    taut string simultaneously minimizes the peak rate and the rate
    variance over all feasible schedules; its bends are the rate
    changes.

    Unlike {!Optimal}, smoothing ignores the cost of a rate change —
    comparing the two quantifies what the paper's renegotiation pricing
    buys (bench experiment [ablation]). *)

val schedule :
  buffer:float -> Rcbr_traffic.Trace.t -> Schedule.t
(** The taut-string schedule.  It is feasible for the given buffer: the
    backlog never exceeds [buffer] and all bits are delivered by the end
    of the trace.  Requires [buffer >= 0] (with 0 the schedule follows
    the arrivals exactly). *)
