(** (sigma, rho) curves: minimum drain rate as a function of buffer size
    (Fig. 5 of the paper).

    For a trace and a target bit-loss fraction, [min_rate] finds the
    smallest constant drain rate such that a buffer of the given size
    loses at most the target fraction of bits; [curve] sweeps buffer
    sizes.  A binary search over rate is exact here because loss is
    monotone nonincreasing in the drain rate.

    Bits still sitting in the buffer when the trace ends count as lost
    (they were never delivered); without this, buffers comparable to
    the whole session would let the "minimum rate" fall below the
    source's mean. *)

val min_rate :
  trace:Rcbr_traffic.Trace.t -> buffer:float -> target_loss:float -> float
(** Smallest rate (b/s) with [loss_fraction <= target_loss], within a
    relative tolerance of 1e-4.  The search bracket is [0, peak frame
    rate]. *)

val min_buffer :
  trace:Rcbr_traffic.Trace.t -> rate:float -> target_loss:float -> float
(** Dual: smallest buffer (bits) achieving the target loss at a fixed
    drain rate.  With [target_loss = 0.] this equals the maximum backlog
    of the infinite buffer (cf {!Rcbr_traffic.Token_bucket.min_depth_for_trace}).
    Same relative tolerance as {!min_rate}. *)

val curve :
  trace:Rcbr_traffic.Trace.t ->
  buffers:float array ->
  target_loss:float ->
  (float * float) array
(** [(buffer, min_rate)] pairs for each requested buffer size. *)
