(** Struct-of-arrays call store: the one per-call representation of
    every simulator ([Mbac], [Multihop], [Svc_compare], [Megacall]) and
    of the switch daemon.

    Per-call state lives in packed parallel arrays indexed by an
    integer {!handle} — applied and demanded rate, schedule cursor,
    generation counter, caller id — with routes stored as slices of a
    shared int arena and freed handles recycled through a stack, so
    the steady-state hot loop allocates nothing.  The MTS
    policer ladder of the [Mts_profile] service model lives here too,
    allocated on first use.  Signalling over an unreliable plane is
    {!Session}'s job; it drives calls of this store by handle.

    Handles are only valid between their {!acquire} and {!release};
    the store does not check for stale handles beyond the [is_live]
    assertion in [release]. *)

type t

type handle = int
(** Dense index into the parallel arrays. *)

val create : ?capacity_hint:int -> unit -> t

val live_count : t -> int
(** Currently acquired handles. *)

val is_live : t -> handle -> bool

val acquire : t -> id:int -> route:int array -> transit:bool -> handle
(** Fresh call with [applied = 0], cursor/gen zeroed and no MTS
    ladder attached; the route (non-empty, link ids in hop order) is
    copied into the arena.  [gen] restarting at 0 on a recycled handle
    is why {!Session.cancel_pending} must run before a signalled call
    is released. *)

val release : t -> handle -> unit
(** Free the handle for reuse.  Requires it live. *)

(** {1 Field access} *)

val id : t -> handle -> int
val applied : t -> handle -> float

val demanded : t -> handle -> float
(** The rate the source currently wants; exceeds [applied] while the
    call is downgraded (service models, DESIGN.md §15). *)

val set_demanded : t -> handle -> float -> unit
val cursor : t -> handle -> int
(** The call's schedule cursor: the index of its next piece.  Whoever
    walks the call's pieces owns it — {!Session} for the calls it
    drives, [Megacall] for its own. *)

val set_cursor : t -> handle -> int -> unit
val gen : t -> handle -> int
val bump_gen : t -> handle -> unit
val transit : t -> handle -> bool
val route_iter : t -> handle -> (int -> unit) -> unit
(** Route link ids in hop order, without materializing an array. *)

(** {1 Route queries} *)

val fits : links:Link.t array -> t -> handle -> rate:float -> now:float -> bool
(** Whether every route link is up and can absorb the rate delta
    within capacity (1e-9 slack for float accumulation). *)

val blocked : links:Link.t array -> t -> handle -> now:float -> bool
(** Whether any route link is inside a crash blackout. *)

val settle : links:Link.t array -> t -> handle -> rate:float -> unit
(** Account the [rate] on every route link (settle semantics: the
    demand moves whether or not it {!fits}) and record it as
    [applied]. *)

(** {1 Service models (DESIGN.md §15)} *)

val decide :
  Rcbr_policy.Service_model.t -> links:Link.t array -> t -> handle ->
  now:float -> demanded:float -> Rcbr_policy.Service_model.decision
(** What the service model grants for a demanded rate change on this
    call — the first step of every engine's one rate-change path, for
    every model.  [Renegotiate] returns [Grant] without probing the
    links; [Downgrade] runs the ladder walk against {!fits};
    [Mts_profile] polices against the call's bucket ladder (attached
    at [now] on first use unless {!attach_mts} ran) and returns
    [Police_to] when it clips.  Records [demanded]; the caller (the
    engines' shared rate-change step) then counts the decision
    ({!Rcbr_policy.Service_model.downgraded},
    {!Rcbr_policy.Service_model.denial}, probing {!fits} only when
    asked) and settles the granted rate. *)

val attach_mts : t -> handle -> Rcbr_policy.Mts.profile -> now:float -> unit
(** Attach a full MTS ladder to the call with its policing clock at
    [now] — for drivers whose calls start being policed at admission
    rather than at their first {!decide}. *)

val try_upgrade :
  Rcbr_policy.Service_model.t -> links:Link.t array -> t -> handle ->
  now:float -> float option
(** Spare-capacity upgrade for a downgraded call ([Downgrade] only):
    the new granted rate if a higher tier (or the full demanded rate)
    fits, [None] otherwise. *)

val upgrade_scan :
  Rcbr_policy.Service_model.t -> links:Link.t array -> t -> now:float ->
  (handle -> float -> unit) -> unit
(** Spare capacity appeared: {!try_upgrade} every live call in
    ascending call-id order (never handle order, which recycling
    scrambles) and pass each granted rate to the callback, which must
    settle it before the next probe.  A no-op except under
    [Downgrade]. *)

(** {1 Population} *)

val audit : links:Link.t array -> t -> int
(** Conservation check: every link's demand must equal the sum of the
    [applied] rates of the live calls crossing it, via
    {!Rcbr_fault.Invariant.check} on per-link views.  Returns the
    number of violations (0 unless there is a bookkeeping bug). *)

val iter_live : t -> (handle -> unit) -> unit
(** Live handles in ascending order. *)
