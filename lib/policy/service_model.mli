(** The service-model contract: what a network does when a call's
    demanded rate does not fit (DESIGN.md section 15).

    The admission controller ({!Rcbr_admission.Controller.place}), the
    call store ({!Rcbr_net.Store.decide} / {!Rcbr_net.Store.drain_upgrades})
    and every call-level simulator take a value of this type instead of
    hard-wiring settle semantics.  Each engine has one arrival path and
    one rate-change path that every model runs through, and one
    counting rule ({!denial}), so the [Renegotiate] pins guard the code
    every model runs.  The type is a closed variant on purpose: models
    must be nameable from a CLI flag ({!of_spec}), deterministic, and
    free of hidden state — a closure-based registry could smuggle
    wall-clock or RNG reads past the determinism lints.

    - {!Renegotiate} — the paper's RCBR service and this repo's seed
      behaviour: every change is granted as demanded and settles; an
      increase the route cannot fit is counted as denied (the overload
      shows up in the demand accounting).
    - {!Downgrade} — tiered admission per arXiv 1604.00894: a change
      that does not fit walks a rate ladder downward and is granted at
      the highest tier that does; if nothing fits the call settles at
      the floor tier.  Downgraded calls are upgraded opportunistically
      on spare-capacity (departure) events, oldest downgrade first.
    - {!Mts_profile} — the demanded rate is policed per change against
      a per-call multi-timescale token-bucket ladder ({!Mts}), attached
      when the call is placed; the granted (possibly clipped) rate
      settles.  Capacity overload is prevented statistically by the
      profile, not per-link. *)

type t =
  | Renegotiate
  | Downgrade of { tiers : float array }
      (** strictly ascending rate ladder, b/s; [tiers.(0)] is the floor *)
  | Mts_profile of Mts.profile

(** What the model decided for one demanded rate change.  The decision
    carries the granted rate; the caller settles it on the links and
    counts it with {!downgraded} and {!denial}. *)
type decision =
  | Grant  (** the demanded rate applies as-is *)
  | Downgrade_to of { granted : float; tier : int }
      (** the demanded tier did not fit; a lower one did *)
  | Police_to of { granted : float }
      (** the MTS profile clipped the demanded rate *)
  | Settle_floor of { granted : float; tier : int }
      (** no tier fit; the call settles at the floor anyway *)

val name : t -> string
(** ["renegotiate"], ["downgrade"] or ["mts"]. *)

val validate : t -> unit
(** Asserts ladder shape (nonempty, strictly ascending, positive) and
    profile well-formedness. *)

val granted_rate : decision -> demanded:float -> float
(** The rate the decision actually grants ([demanded] for {!Grant}). *)

val downgraded : decision -> bool
(** Whether the decision granted less than demanded.  Engines count one
    downgrade per such decision; a call's setup counts once. *)

(** How a rate change counts toward renegotiation failure, the price
    RCBR pays for its multiplexing gain (the paper's Figs. 7-10). *)
type denial =
  | Not_denied
  | Denied  (** an increase the model settled at the floor *)
  | Denied_unless_fits
      (** an increase granted in full: denied exactly when the caller's
          route cannot fit the demanded rate *)

val denial : decision -> increase:bool -> denial
(** The one counting rule of every engine: an increase is denied when
    the model settled it at the floor, or granted it in full and the
    route cannot fit it.  A [Downgrade_to] or [Police_to] grant is a
    downgrade, not a denial, and a decrease is never denied.  Only
    [Denied_unless_fits] asks the caller to probe its route (before it
    settles the change), so no other change pays for a probe. *)

val decide_tiers :
  tiers:float array -> demanded:float -> fits:(float -> bool) -> decision
(** The {!Downgrade} ladder walk.  [fits rate] probes whether the
    candidate rate fits on the caller's route; probes run highest tier
    first and stop at the first fit, so the probe count is
    deterministic.  Never returns {!Police_to}. *)

val upgrade :
  tiers:float array -> demanded:float -> applied:float ->
  fits:(float -> bool) -> float option
(** Spare-capacity upgrade for a downgraded call: the demanded rate if
    it fits, else the highest ladder tier above [applied] and at most
    [demanded] that fits.  [None] when the call is already whole or
    nothing fits. *)

val tiers_of_schedule : Rcbr_core.Schedule.t -> n:int -> float array
(** Rate ladder derived from a trellis schedule: up to [n] evenly
    spaced picks from the schedule's distinct segment rates (always
    including the minimum and maximum), strictly ascending. *)

val of_spec :
  string ->
  default_tiers:(int option -> float array) ->
  default_mts:(unit -> Mts.profile) ->
  (t, string) result
(** Parse a CLI service spec: [renegotiate], [downgrade],
    [downgrade:N] (ladder of [N] tiers from [default_tiers (Some n)]),
    [downgrade:R1,R2,...] (explicit b/s rates, sorted and deduped) or
    [mts] (profile from [default_mts ()]). *)

val spec_doc : string
(** One-sentence description of the spec grammar for CLI --service
    documentation. *)
