(** The call steps every call-level engine shares (DESIGN.md §15).

    RCBR's network grants a new rate when every hop can carry it, and
    an increase that does not fit counts as a renegotiation failure.
    [Mbac], [Multihop], [Svc_compare] and [Megacall] run that rule, and
    the arrival a gate admitted, through these steps: each asks the
    service model once, counts the decision into a {!counts} record the
    caller owns and settles the granted rate through
    {!Rcbr_net.Store.settle}.  No step allocates beyond the [Store]
    calls it makes and, under [Downgrade], the one [fits] closure
    {!Rcbr_admission.Controller.place} takes at an arrival. *)

type counts = {
  mutable admitted : int;  (** arrivals placed *)
  mutable blocked : int;
      (** arrivals refused: at the ladder floor by {!arrive}, and by
          the engine's own admission gate *)
  mutable attempts : int;  (** rate increases *)
  mutable denied : int;  (** increases counted as renegotiation failures *)
  mutable crash_denials : int;
      (** denied increases whose route crossed a link in a crash
          blackout *)
  mutable downgrades : int;  (** decisions granted below the demanded rate *)
  mutable upgrades : int;  (** spare-capacity restorations *)
}

val counts : unit -> counts
(** All zero. *)

val arrive :
  Rcbr_admission.Controller.t -> Rcbr_policy.Service_model.t ->
  links:Rcbr_net.Link.t array -> Rcbr_net.Store.t -> Rcbr_net.Store.handle ->
  now:float -> demanded:float -> counts -> bool
(** Place a call the admission gate let in, on its freshly acquired
    handle: {!Rcbr_admission.Controller.place} under [Downgrade],
    probing {!Rcbr_net.Store.fits}, and a full grant under the other
    models, as [place] answers there.  On [Settle_floor] the handle is
    released and the call counted blocked; otherwise it is counted
    admitted (and downgraded, and queued for spare capacity, when
    placed below [demanded]), its demanded and granted rates are
    recorded and settled, its MTS ladder attached
    ({!Rcbr_net.Store.attach_mts}), and the controller is told
    ({!Rcbr_admission.Controller.on_admit}).  Returns whether the call
    was placed. *)

val change :
  Rcbr_policy.Service_model.t -> links:Rcbr_net.Link.t array ->
  Rcbr_net.Store.t -> Rcbr_net.Store.handle -> now:float -> demanded:float ->
  counts -> Rcbr_policy.Service_model.decision
(** One demanded rate change, in order: the increase test, the model's
    decision ({!Rcbr_net.Store.decide}) and its downgrade count,
    {!Rcbr_policy.Service_model.denial}'s rule (probing
    {!Rcbr_net.Store.fits} only for [Denied_unless_fits]), a crash
    denial when the route is {!Rcbr_net.Store.blocked}, then the settle
    of the granted rate, whether or not it fits.  Returns the decision;
    the caller tells its own controller. *)

val upgrade :
  Rcbr_admission.Controller.t -> links:Rcbr_net.Link.t array ->
  Rcbr_net.Store.t -> Rcbr_net.Store.handle -> now:float -> rate:float ->
  counts -> unit
(** A spare-capacity upgrade {!Rcbr_net.Store.drain_upgrades} chose:
    count it, settle [rate] and tell the controller. *)

(** {1 Link utilization} *)

type utilization
(** The time integral of the mean per-link utilization, each link's
    demand over capacity capped at 1. *)

val utilization : Rcbr_net.Link.t array -> utilization
(** Zero integral from time 0. *)

val advance : utilization -> now:float -> unit
(** Integrate the current link demands up to [now]; a no-op unless
    time moved forward. *)

val integral : utilization -> float

(** {1 Outcome hashes} *)

val fnv : int -> int -> int
(** FNV-style mixing step of the engines' outcome hashes.  It and
    {!fnv_float} are registered determinism sinks (T001, DESIGN.md
    §14): call them by this name, since the analyzer does not follow a
    value alias. *)

val fnv_float : int -> float -> int
(** {!fnv} over the bits of a float. *)
