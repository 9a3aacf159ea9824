(** The service-model contract: what a network does when a call's
    demanded rate does not fit (DESIGN.md section 15).

    The admission kernel ({!Rcbr_admission.Controller.decide}), the
    call store ({!Rcbr_net.Store.decide} / {!Rcbr_net.Store.try_upgrade})
    and every call-level simulator are parameterized by a value of this
    type instead of hard-wiring settle semantics.  The type is a closed variant on purpose: models
    must be nameable from a CLI flag ({!of_spec}), deterministic, and
    free of hidden state — a closure-based registry could smuggle
    wall-clock or RNG reads past the determinism lints.

    - {!Renegotiate} — the paper's RCBR service and this repo's seed
      behaviour: a change that does not fit is counted as denied and
      settles anyway (the overload shows up in the demand accounting).
      Every driver's [Renegotiate] branch preserves its historical
      float expressions verbatim, so results are bit-identical to the
      pre-refactor code — the refactor's correctness anchor.
    - {!Downgrade} — tiered admission per arXiv 1604.00894: a change
      that does not fit walks a rate ladder downward and is granted at
      the highest tier that does; if nothing fits the call settles at
      the floor tier.  Downgraded calls are upgraded opportunistically
      on spare-capacity (departure) events, in deterministic order.
    - {!Mts_profile} — the demanded rate is policed per change against
      a per-call multi-timescale token-bucket ladder ({!Mts}); the
      granted (possibly clipped) rate settles.  Capacity overload is
      prevented statistically by the profile, not per-link. *)

type t =
  | Renegotiate
  | Downgrade of { tiers : float array }
      (** strictly ascending rate ladder, b/s; [tiers.(0)] is the floor *)
  | Mts_profile of Mts.profile

(** What the model decided for one demanded rate change.  The decision
    carries the granted rate; the caller settles it on the links and
    does its own (driver-specific) counting. *)
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
(** Whether the decision granted less than demanded. *)

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
