(** Renegotiation failure across multiple hops (Section III-C).

    "As the mean number of hops in the network increases, the
    probability of renegotiation failure is likely to increase since
    each hop is a possible point of failure."  Transit calls traverse
    [hops] links, each also carrying its own single-hop cross traffic;
    a transit rate increase succeeds only if {e every} hop can fit it.
    The experiment measures the denial fraction of transit
    renegotiations as the path grows.

    Since the [lib/net] refactor this module is a thin driver over
    {!Rcbr_net}: the topology-general engine is {!run_net} (any
    {!Rcbr_net.Topology.t} — meshes, routes of different lengths,
    shared links), and the historical entry points map onto it through
    {!Rcbr_net.Topology.parallel_routes} bit-identically. *)

type config = {
  schedule : Rcbr_core.Schedule.t;  (** played by transit and local calls *)
  hops : int;
  capacity_per_hop : float;  (** b/s *)
  transit_calls : int;  (** concurrent calls crossing all hops *)
  local_calls_per_hop : int;  (** concurrent single-hop calls on each hop *)
  horizon : float;  (** simulated seconds *)
  seed : int;
}

type balanced_config = {
  base : config;
  routes : int;  (** parallel alternative paths, each [hops] long *)
  balance : bool;
      (** pick the least-loaded route at call setup (the paper's
          "load balancing at the call level") vs uniformly at random *)
}

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
          [Renegotiate] is the seed's settle semantics.  Every model
          runs one rate-change path ({!Rcbr_net.Store.decide}, then
          {!Rcbr_policy.Service_model.denial}'s counting rule probed
          with {!Rcbr_net.Store.fits}, then {!Rcbr_net.Store.settle}).
          The historical entry points ({!run}/{!run_balanced}/
          {!run_faulty}) always run [Renegotiate]. *)
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

val run : config -> metrics
(** Calls hold for the whole horizon, each playing an independently
    phased copy of the schedule (renegotiation-event driven).  Requires
    positive hops, capacity and horizon, and nonnegative call counts
    with at least one transit call. *)

val run_many : ?pool:Rcbr_util.Pool.t -> config list -> metrics list
(** One {!run} per config, in order, fanned out over the pool (the
    Section III-C hop sweep).  Results are identical for any pool
    size. *)

val run_balanced : balanced_config -> metrics
(** The same with [routes] parallel paths; [base.transit_calls] transit
    calls are spread across them (least-loaded or random) and each path
    carries its own [base.local_calls_per_hop] cross traffic per hop.
    [run c] = [run_balanced { base = c; routes = 1; balance = false }].
    Tests the paper's conjecture that alternate routes plus call-level
    load balancing compensate for the per-hop failure growth. *)

val run_faulty :
  balanced_config -> Rcbr_net.Session.faults -> metrics * fault_metrics
(** {!run_balanced} over an unreliable signalling plane: each rate-change
    cell is lost with probability [rm_drop] per hop and retransmitted
    after [retx_timeout] (a newer change for the same call supersedes the
    pending retransmission); crashed hops deny every increase crossing
    them while down.  Fault randomness comes from a separate
    [fault_seed]ed stream, so [run_faulty bc Session.no_faults =
    (run_balanced bc, zeros)] bit for bit. *)

val run_net : net_config -> Rcbr_net.Session.faults -> metrics * fault_metrics
(** The topology-general experiment the historical entry points are
    built on: transit calls pick among [topology]'s routes (which may
    have different lengths and share links) and every link carries its
    own local cross traffic.  [faults.crashes] name link ids.  On a
    {!Rcbr_net.Topology.parallel_routes} topology this is exactly
    {!run_faulty}. *)
