(** Million-call simulation engine: 10^6+ concurrent calls on grid
    meshes.

    Combines the {!Rcbr_net.Store} struct-of-arrays session store, the
    {!Rcbr_queue.Wheel} event heap driven with integer handles (no
    per-event closures), the {!Rcbr_admission.Controller} with its
    weight-keyed decision cache and link-sharded parallel runs over
    the Domain {!Rcbr_util.Pool}.  Each shard owns a disjoint
    {!Rcbr_net.Topology.grid} mesh and a pre-split RNG; the merge is
    an ordered reduction, so every metric — including
    {!metrics.outcome_hash} — is bit-identical for any [-j]
    (the PR 2/3 determinism invariant; checked in CI at [-j1] vs
    [-j4]). *)

type config = {
  shards : int;  (** independent sub-meshes, one Pool task each *)
  rows : int;
  cols : int;  (** per-shard grid (see {!Rcbr_net.Topology.grid}) *)
  calls_per_shard : int;  (** ramp target population per shard *)
  levels : float array;  (** rate levels calls renegotiate among, b/s *)
  link_load_factor : float;
      (** per-link capacity as a multiple of the expected per-link load
          at the ramp target *)
  admit_margin : float;
      (** controller capacity as a multiple of [calls * mean level] *)
  target : float;  (** admission overflow target *)
  mean_hold : float;  (** mean seconds between a call's rate changes *)
  pieces_per_call : int;  (** rate changes before departure *)
  tick : float;  (** arrival-batch period, s *)
  ramp_ticks : int;  (** ticks over which the ramp quota is spread *)
  horizon : float;  (** churn seconds simulated after the ramp *)
  seed : int;
  service : Rcbr_policy.Service_model.t;
      (** what a non-fitting rate gets (DESIGN.md §15).  [Renegotiate]
          is the default; [Downgrade] grants ladder tiers and restores
          downgraded calls on departures in FIFO order; [Mts_profile]
          polices each change against a per-call token-bucket ladder,
          attached at admission.  Every model runs one arrival path
          (Chernoff gate, then the route and level draws, then
          {!Rcbr_admission.Controller.place}) and one rate-change path
          ({!Rcbr_net.Store.decide}, the
          {!Rcbr_policy.Service_model.denial} rule probed with
          {!Rcbr_net.Store.fits}, then {!Rcbr_net.Store.settle}).  The
          shard hash folds the downgrade and upgrade counters only for
          the other models, which keeps the [Renegotiate] hash. *)
}

val default : concurrent:int -> unit -> config
(** Sensible knobs for a target total concurrent population: 8 shards
    of 8x8 meshes, three rate levels, generous admission margin so the
    ramp actually reaches [concurrent] calls. *)

type shard_metrics = {
  arrivals : int;
  admitted : int;
  admission_denied : int;
  reneg_attempts : int;  (** renegotiations asking for a rate increase *)
  reneg_denied : int;
      (** of which were denied by {!Rcbr_policy.Service_model.denial}:
          settled at the ladder floor, or granted in full where the
          route could not fit them *)
  departures : int;
  events_fired : int;  (** wheel events (renegotiations + departures) *)
  downgrades : int;  (** rates granted below demanded; 0 under [Renegotiate] *)
  upgrades : int;  (** downgraded calls restored on spare capacity *)
  peak_concurrent : int;
  final_concurrent : int;
  decision_hash : int;  (** the controller's admit/deny sequence hash *)
  batch_hits : int;
      (** decisions the controller answered from its stored bounds on
          the admission limit, with no probe and no search *)
  audit_violations : int;  (** conservation check over the final store *)
  shard_hash : int;  (** FNV over link demands and the counters above *)
}

type metrics = {
  shards_ : shard_metrics array;  (** per shard, in shard order *)
  total_arrivals : int;
  total_admitted : int;
  total_denied : int;
  total_reneg_attempts : int;
  total_reneg_denied : int;
  total_departures : int;
  total_events : int;
  total_downgrades : int;
  total_upgrades : int;
  concurrent_calls : int;  (** sum of final per-shard populations *)
  peak_concurrent : int;  (** sum of per-shard peaks *)
  total_batch_hits : int;  (** sum of the shards' [batch_hits] *)
  total_memo_hits : int;
      (** always 0: the Chernoff solver keeps no memo (the controller
          keeps bounds on the admission limit instead).
          Kept because the end-to-end benchmark (bench/e2e) reads it. *)
  audit_violations : int;
  outcome_hash : int;  (** ordered FNV fold of the shard hashes *)
}

val run : ?pool:Rcbr_util.Pool.t -> config -> metrics
(** Run every shard (in parallel when [pool] has jobs) and merge in
    shard order.  Deterministic per [config]; independent of [-j]. *)
