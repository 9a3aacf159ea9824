(** Minimal discrete-event simulation engine.

    Drives the call-level experiments (Poisson arrivals, renegotiation
    events, departures).  Events at equal times fire in scheduling order,
    so simulations are deterministic.  Backed by the {!Wheel} binary
    heap, which pops in (time, push order). *)

type t

type token
(** A scheduled event that can still be {!cancel}led. *)

val create : unit -> t

val now : t -> float
(** Current simulation time; 0 before any event has fired. *)

val schedule : t -> at:float -> (t -> unit) -> unit
(** Requires [at >= now t]. *)

val schedule_token : t -> at:float -> (t -> unit) -> token
(** Like {!schedule} but returns a cancellation token. *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Requires [delay >= 0]. *)

val cancel : token -> unit
(** Remove the event from the queue if it has not fired yet; it will
    never run.  No-op once fired or already cancelled, so holders need
    not track firing themselves. *)

val cancelled : token -> bool
(** Whether the event is gone (fired or cancelled). *)

val step : t -> bool
(** Fire the earliest pending event.  False when none are pending. *)

val run : ?until:float -> t -> unit
(** Fire events until the queue is empty or the next event is past
    [until] (events at exactly [until] still fire).  The clock is left
    at the last fired event — use {!advance_to} when [now] must end up
    at the bound itself. *)

val advance_to : t -> at:float -> unit
(** [run ~until:at] and then advance the clock to exactly [at], so
    [now t = at] even when the last event fired earlier (or no event
    fired at all).  Requires [at >= now t]. *)

val pending : t -> int
(** Live (not cancelled) scheduled events. *)
