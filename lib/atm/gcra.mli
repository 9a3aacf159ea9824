(** Generic Cell Rate Algorithm — peak-rate policing.

    Section VI: with RCBR, "policing is reduced to enforcing peak
    rate".  This is the standard ATM UPC device: the virtual scheduling
    formulation of GCRA(T, tau), where T is the nominal inter-cell time
    of the policed rate and tau the cell-delay-variation tolerance.  A
    cell is conforming iff it does not arrive more than tau early
    against its theoretical arrival time. *)

type t

val create : rate:float -> ?cdvt:float -> unit -> t
(** Police the given cell {e payload} rate (b/s).  [cdvt] defaults to
    one nominal inter-cell time.  Requires [rate > 0] and
    [cdvt >= 0]. *)

val conforming : t -> float -> bool
(** [conforming t at] tests (and accounts) a cell arriving at time
    [at].  Nonconforming cells do not advance the theoretical arrival
    time.  Arrival times must be nondecreasing. *)
