(** Renegotiation failure across multiple hops (Section III-C).

    "As the mean number of hops in the network increases, the
    probability of renegotiation failure is likely to increase since
    each hop is a possible point of failure."  Transit calls cross every
    link of their route, each link also carrying its own single-hop
    cross traffic; a transit rate increase succeeds only if {e every}
    hop can fit it.  The experiment measures the denial fraction of
    transit renegotiations as the path grows.

    This module is a thin driver over {!Rcbr_net} with one entry point,
    {!run_net}, on any {!Rcbr_net.Topology.t}: the Section III-C hop
    sweep runs on {!Rcbr_net.Topology.linear}, the alternate-route
    experiment on {!Rcbr_net.Topology.parallel_routes}, and meshes may
    have routes of different lengths over shared links. *)

type net_config = {
  schedule : Rcbr_core.Schedule.t;
  topology : Rcbr_net.Topology.t;
  transit_calls : int;
      (** spread across the topology's routes (least-loaded or random) *)
  local_calls_per_link : int;  (** single-hop cross traffic on every link *)
  horizon : float;
  seed : int;
  balance : bool;
  service : Rcbr_policy.Service_model.t;
      (** what a non-fitting rate change gets (DESIGN.md §15);
          [Renegotiate] is the seed's settle semantics.  Every rate
          change runs {!Call_step.change}; nothing admits calls here,
          so a call's setup is the model's decision and the settle. *)
}

type metrics = {
  transit_attempts : int;  (** rate-increase requests by transit calls *)
  transit_denials : int;
  local_attempts : int;
  local_denials : int;
  downgrades : int;
      (** decisions granted below the demanded rate, call setups
          included; 0 under [Renegotiate] *)
  mean_hop_utilization : float;  (** demand / capacity, time-averaged, capped at 1 *)
}

type fault_metrics = {
  rm_lost : int;  (** signalling cells the fault plane swallowed *)
  retransmits : int;
  abandoned : int;  (** rate changes applied only after give-up *)
  superseded : int;  (** retransmissions cancelled by a newer change *)
  crash_denials : int;  (** denials caused purely by a crashed hop *)
  invariant_failures : int;  (** 0 unless there is a bookkeeping bug *)
}

val denial_fraction : metrics -> float
(** [transit_denials / transit_attempts]; 0 when no attempts. *)

val run_net : net_config -> Rcbr_net.Session.faults -> metrics * fault_metrics
(** Calls hold for the whole horizon, each playing an independently
    phased copy of the schedule (renegotiation-event driven).  Transit
    calls pick among the topology's routes (least-loaded or uniformly
    at random) and every link carries its own local cross traffic.

    The signalling plane is [faults]: each rate-change cell is lost with
    probability [rm_drop] per hop and retransmitted after
    [retx_timeout] (a newer change for the same call supersedes the
    pending retransmission); [faults.crashes] name link ids, and a
    crashed link denies every increase crossing it while down.  Fault
    randomness comes from a separate [fault_seed]ed stream, so a null
    plan ({!Rcbr_net.Session.no_faults}, or any [rm_drop = 0.] without
    crashes) reproduces the fault-free run bit for bit.  Requires a
    positive horizon and nonnegative call counts with at least one
    transit call. *)

val run_many :
  ?pool:Rcbr_util.Pool.t -> net_config list -> metrics list
(** {!run_net} over the reliable plane for each config, in order,
    fanned out over the pool (the Section III-C hop sweep).  Results
    are identical for any pool size. *)
