(** Service-model shoot-out: the three {!Rcbr_policy.Service_model}s
    run over one pre-generated workload on one shared mesh, so the only
    difference between the columns is what each model grants
    (DESIGN.md §15).

    A seeded workload — arrival times, route picks and per-call
    (duration, rate) pieces — is drawn from a fixed seed and replayed
    verbatim under [Renegotiate], [Downgrade] (a 4-tier ladder between
    the lowest and highest workload level) and [Mts_profile] (a 3-scale
    token-bucket ladder between the workload's mean and peak rates, 4 s
    quantum).  The models run the call steps every engine shares: the
    downgrade ladder restores calls in the order they were downgraded
    ({!Rcbr_net.Store.drain_upgrades}) and the MTS ladder polices a
    call from its arrival on.  Calls demand 64 kb/s, 256 kb/s or
    1 024 kb/s, and a perfect-knowledge controller admits against 0.9x
    the workload's mean load at overflow target 1e-6.  Each run
    reports the paper's statistical-multiplexing gain alongside the
    service-quality prices the models pay for it: blocking probability,
    downgrade probability, and Jain's fairness index over per-flow
    granted/demanded bit ratios.  Everything is deterministic per
    [config]; the [bench] harness hashes {!model_metrics.decision_hash}
    and {!model_metrics.outcome_hash} into its drift gate. *)

type config = {
  capacity : float;  (** per-link capacity, b/s *)
  calls : int;  (** workload size (arrivals generated) *)
  arrival_window : float;  (** arrivals land uniformly in [0, window] s *)
}

val rows : int
val cols : int
(** The shared {!Rcbr_net.Topology.grid} mesh: 4x4. *)

val pieces_per_call : int
(** Rate pieces per call (6, of 5 s mean duration) before departure. *)

val default : unit -> config
(** A 4x4 mesh under enough load that the models actually diverge:
    nonzero blocking under [Renegotiate], downgrades and upgrades under
    [Downgrade], policing under [Mts_profile]. *)

type model_metrics = {
  model : string;  (** {!Rcbr_policy.Service_model.name} *)
  arrivals : int;
  admitted : int;
  blocked : int;
  reneg_attempts : int;  (** rate-increase requests by admitted calls *)
  reneg_denied : int;
      (** increases denied by {!Rcbr_policy.Service_model.denial}:
          settled at the ladder floor, or granted in full where the
          route could not fit them *)
  downgrades : int;  (** grants below the demanded rate *)
  upgrades : int;  (** downgraded calls restored on departures *)
  departures : int;
  blocking_probability : float;  (** blocked / arrivals *)
  downgrade_probability : float;
      (** downgrades / (admissions + change attempts) *)
  mean_utilization : float;
      (** link demand / capacity, time- and link-averaged, capped at 1 *)
  smg : float;  (** statistical multiplexing gain:
                    [mean_utilization x peak / mean] of the level set *)
  jain_fairness : float;
      (** Jain's index over per-flow granted/demanded bit ratios;
          blocked calls count as 0 *)
  decision_hash : int;  (** the controller's admit/deny sequence hash *)
  outcome_hash : int;  (** FNV over the counters and final link demands *)
  audit_violations : int;  (** conservation check over the calls still live *)
}

type metrics = { models : model_metrics array }
(** In model order: renegotiate, downgrade, mts. *)

val run : ?pool:Rcbr_util.Pool.t -> config -> metrics
(** {!run_model} for each of the three contenders (in parallel when
    [pool] has jobs).  Deterministic per [config]; independent of pool
    size. *)

val run_model : config -> Rcbr_policy.Service_model.t -> model_metrics
(** The config's workload under one given model — for differential
    tests against [Renegotiate]. *)
