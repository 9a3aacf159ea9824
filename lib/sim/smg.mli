(** Statistical multiplexing gain comparison (Fig. 3 scenarios, Fig. 6).

    Three ways to carry [n] independent, randomly phased copies of the
    same video stream with a shared budget of [n * buffer] bits of
    buffering and [n * c] b/s of capacity:

    - {b CBR} (Fig. 3a): each stream has its own buffer and a fixed rate
      [c]; no multiplexing at all, so the required [c] is independent of
      [n].
    - {b Shared} (Fig. 3b): all streams feed one buffer of [n * buffer]
      drained at [n * c]; the maximum achievable gain.
    - {b RCBR} (Fig. 3c): each stream is smoothed into a piecewise-CBR
      schedule by its own buffer and the [n] schedules share a
      {e bufferless} link of rate [n * c]; bits are lost whenever total
      demand exceeds the link (the source settles for the remaining
      bandwidth).

    For each scenario and stream count, [min_capacity_cbr] and
    [min_capacities_*] binary-search the smallest per-stream [c]
    meeting a bit-loss-fraction target, averaging over [replications]
    random phasings.

    Every function taking [?pool] distributes its independent
    replications (and, for [min_capacities_*], its per-stream-count
    searches) over the given {!Rcbr_util.Pool}.  The per-replication
    generators are pre-split sequentially from the config seed, so
    results are bit-identical for any pool size, including no pool at
    all. *)

type config = {
  trace : Rcbr_traffic.Trace.t;
  schedule : Rcbr_core.Schedule.t;  (** RCBR schedule of the same trace *)
  buffer : float;  (** per-stream smoothing buffer, bits *)
  target_loss : float;
  replications : int;
  seed : int;
}

val validate : config -> unit

val min_capacity_cbr : config -> float
(** Per-stream rate of the static CBR scenario (independent of [n]). *)

val min_capacities_shared :
  ?pool:Rcbr_util.Pool.t -> config -> ns:int list -> float list
(** Per-stream rate of the shared-buffer scenario for each stream count
    of [ns], in order; the searches run concurrently on the pool. *)

val min_capacities_rcbr :
  ?pool:Rcbr_util.Pool.t -> config -> ns:int list -> float list
(** The same for the RCBR scenario. *)

val rcbr_loss :
  ?pool:Rcbr_util.Pool.t -> config -> n:int -> capacity_per_stream:float -> float
(** Average bit-loss fraction of the RCBR scenario at a given capacity
    (exposed for tests and admission experiments). *)

val shared_loss :
  ?pool:Rcbr_util.Pool.t -> config -> n:int -> capacity_per_stream:float -> float

val asymptotic_rcbr_capacity : config -> float
(** The [n -> infinity] limit of the RCBR per-stream capacity: the mean
    rate of the schedule (the inverse bandwidth-efficiency times the
    stream mean, as the paper notes). *)
