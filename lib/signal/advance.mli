(** Advance reservations for stored video (Section III-A-2).

    "If all systems in the network share a common time base, advance
    reservations could be done for some or all of the data stream."  A
    booking calendar for one link: piecewise-constant reserved bandwidth
    over future time, with all-or-nothing booking of whole renegotiation
    schedules.  Booking in advance turns mid-stream renegotiation
    failures into up-front call blocking. *)

type t

val create : capacity:float -> t
(** Empty calendar for a link of [capacity] b/s.  Requires a positive
    capacity. *)

val reserved_at : t -> float -> float
(** Total bandwidth booked at the given instant. *)

val peak_reserved : t -> from_:float -> until:float -> float
(** Maximum booked bandwidth over the window.  Requires
    [from_ < until]. *)

val book : t -> from_:float -> until:float -> rate:float -> bool
(** Reserve [rate] over [\[from_, until)] iff it fits under the capacity
    throughout; false (and no change) otherwise.  Requires nonnegative
    [rate] and [from_ < until]. *)

val book_schedule : t -> start:float -> Rcbr_core.Schedule.t -> bool
(** Book every segment of a schedule beginning at absolute time [start],
    atomically: either the whole stream is reserved or nothing is. *)

val release : t -> from_:float -> until:float -> rate:float -> unit
(** Return previously booked bandwidth (e.g. a cancelled stream). *)

val booked_area : t -> from_:float -> until:float -> float
(** Integral of the booked rate over the window, bit. *)
