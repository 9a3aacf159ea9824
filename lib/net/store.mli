(** Struct-of-arrays call store: the one per-call representation of
    every simulator ([Mbac], [Multihop], [Svc_compare], [Megacall]) and
    of the switch daemon.

    Per-call state lives in packed parallel arrays indexed by an
    integer {!handle} — applied and demanded rate, schedule cursor,
    generation counter, caller id — with each call's route kept by
    reference (the caller's array, not a copy) and freed handles
    recycled through a stack, so the steady-state hot loop allocates
    nothing.  The service models' per-call state lives here too
    (DESIGN.md §15): the MTS policer ladder of [Mts_profile],
    allocated on first use, and the one queue of calls [Downgrade]
    granted below demand.  Signalling over an unreliable plane is
    {!Session}'s job; it drives calls of this store by handle.

    Handles are only valid between their {!acquire} and {!release};
    the store does not check for stale handles beyond the [is_live]
    assertion in [release].

    The store keeps the route array it is given: the caller must not
    mutate it while the call is live.  A route is fixed at setup, and
    every caller passes one that outlives the call (a [Topology] route,
    a one-link route built once per run, a route decoded for one
    setup); a route mutated under a live call would move its later
    settles onto other links, which {!audit} reports. *)

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
    kept, not copied, so acquiring allocates nothing once the handle
    columns have grown.  [gen] restarting at 0 on a recycled handle
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
(** Route link ids in hop order. *)

(** {1 Route queries} *)

val fits : links:Link.t array -> t -> handle -> rate:float -> now:float -> bool
(** Whether every route link is up and can absorb the rate delta
    within capacity (1e-9 slack for float accumulation). *)

val blocked : links:Link.t array -> t -> handle -> now:float -> bool
(** Whether any route link is inside a crash blackout. *)

val advance : links:Link.t array -> t -> handle -> now:float -> unit
(** {!Link.advance} every route link to [now], in hop order: what a
    driver that integrates each link only up to its own last change
    runs before it moves the call's rate. *)

val settle : links:Link.t array -> t -> handle -> rate:float -> unit
(** Account the [rate] on every route link (settle semantics: the
    demand moves whether or not it {!fits}) and record it as
    [applied]. *)

(** {1 Service models (DESIGN.md §15)} *)

val attach_mts :
  Rcbr_policy.Service_model.t -> t -> handle -> now:float -> unit
(** Place the call under the model's policer: under [Mts_profile],
    attach a full bucket ladder with its policing clock at [now];
    under the other models, nothing.  Every engine runs it when it
    places a call, so {!decide} polices everything the call has played
    since. *)

val decide :
  Rcbr_policy.Service_model.t -> links:Link.t array -> t -> handle ->
  now:float -> demanded:float -> Rcbr_policy.Service_model.decision
(** What the service model grants for a demanded rate change on this
    call — the first step of every engine's one rate-change path, for
    every model.  [Renegotiate] returns [Grant] without probing the
    links; [Downgrade] runs the ladder walk against {!fits} and queues
    a call it grants below demand ({!queue_upgrade}); [Mts_profile]
    polices against the ladder {!attach_mts} attached (it asserts
    one is) and returns [Police_to] when it clips.  Records [demanded];
    the caller (the engines' shared rate-change step) then counts the
    decision ({!Rcbr_policy.Service_model.downgraded},
    {!Rcbr_policy.Service_model.denial}, probing {!fits} only when
    asked) and settles the granted rate. *)

val queue_upgrade : t -> handle -> unit
(** Put the call at the tail of the store's one queue of downgraded
    calls waiting for spare capacity.  {!decide} queues the changes it
    grants below demand; the arrival step queues a call placed below
    its demand. *)

val drain_upgrades :
  Rcbr_policy.Service_model.t -> links:Link.t array -> t -> now:float ->
  (handle -> now:float -> rate:float -> unit) -> unit
(** Spare capacity appeared (a departure): restore queued calls in the
    order they were downgraded ([Downgrade] only; a no-op otherwise).
    Each granted rate — the full demanded rate if it fits, else the
    highest ladder tier that does — goes to the callback with [now], so
    an engine builds its callback once per run; the callback must
    settle the rate before the next probe.  Entries of departed,
    recycled or already restored calls are dropped; a head that fits
    nothing higher blocks the rest, and one restored only part way
    keeps the head for the next departure.  O(1) amortised per entry. *)

(** {1 Population} *)

val audit : links:Link.t array -> t -> int
(** Conservation check: every link's demand must equal the sum of the
    [applied] rates of the live calls crossing it, via
    {!Rcbr_fault.Invariant.check} on per-link views.  Returns the
    number of violations (0 unless there is a bookkeeping bug). *)
