(** Slotted fluid queues with finite buffers.

    The modeling abstraction of Section II: traffic is queued in a buffer
    of [capacity] bits drained at a (possibly time-varying) rate; data
    that does not fit is lost.  Within a slot, arrivals and service net
    out before the buffer bound is applied (the paper's formula (3)), so
    a backlog equal to the capacity is legal at every slot boundary. *)

type result = {
  bits_offered : float;
  bits_lost : float;
  max_backlog : float;  (** peak buffer occupancy, bits *)
  final_backlog : float;
}

val loss_fraction : result -> float
(** [bits_lost / bits_offered]; 0 when nothing was offered. *)

val run_constant : capacity:float -> rate:float -> Rcbr_traffic.Trace.t -> result
(** Feed a whole trace through a buffer drained at constant [rate]
    (b/s). *)

val run_schedule :
  capacity:float ->
  rate_per_slot:(int -> float) ->
  Rcbr_traffic.Trace.t ->
  result
(** Same with a per-slot drain rate (b/s), e.g. an RCBR schedule. *)

val run_aggregate :
  capacity:float -> rate:float -> fps:float -> float array array -> result
(** Multiplex several per-slot arrival arrays (bits per slot, equal
    lengths) into one shared buffer drained at [rate] b/s — scenario (b)
    of Fig. 3. *)
