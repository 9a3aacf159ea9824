(** Leaky-bucket / token-bucket traffic descriptors.

    The "one-shot traffic descriptors" of Section II: a token rate [rho]
    (tokens accrue at [rho] b/s up to depth [sigma] bits) against which
    arriving data is policed.  Used to quantify how poorly a static
    (sigma, rho) pair captures multiple time-scale traffic. *)

type t

val create : rate:float -> depth:float -> t
(** Requires [rate >= 0] and [depth >= 0].  The bucket starts full. *)

val rate : t -> float
val tokens : t -> float

val refill : t -> dt:float -> unit
(** Accrue tokens for [dt >= 0] seconds. *)

val try_consume : t -> float -> bool
(** [try_consume t bits] atomically takes [bits] tokens if available.
    Returns false (taking nothing) otherwise. *)

val conforming_fraction : t -> trace:Trace.t -> float
(** Fraction of the trace's bits that conform (greedy per-frame
    policing). Mutates the bucket. *)

val min_depth_for_trace : Trace.t -> rate:float -> float
(** Smallest bucket depth such that every frame of the trace conforms at
    token rate [rate] — i.e. the maximum backlog of the virtual queue
    drained at [rate].  This is the exact burstiness curve
    sigma*(rho). *)
