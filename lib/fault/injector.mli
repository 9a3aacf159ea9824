(** Runtime fault decisions for one connection's signalling cells.

    An injector owns one PRNG stream per hop (split from the plan's
    seed) plus a source-side stream for retransmission jitter, and
    keeps running totals of every fault it injected.  Decisions are
    consumed one per cell traversal, so a run is a deterministic
    function of the plan alone.  Reordering is modelled as the cell
    falling one slot behind its successor: with at most one request in
    flight that is observationally a one-slot delay, and it is counted
    separately in the totals. *)

type fate =
  | Deliver  (** the cell crosses this link intact *)
  | Drop  (** the cell vanishes; everything downstream never sees it *)
  | Duplicate  (** a second copy arrives right behind the first *)
  | Delay of int  (** delivered, but this many slots late *)

type totals = {
  sent : int;  (** cell-link traversals attempted *)
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
}

type t

val create : Plan.t -> t
(** Validates the plan.  Equal plans give equal fate streams. *)

val fate : t -> hop:int -> fate
(** Decide the fate of one cell crossing [hop].  Consumes randomness
    from that hop's stream only (and none at all on a reliable link, so
    adding a faulty hop never perturbs the others). *)

val jitter : t -> int -> int
(** [jitter t n] is uniform in [0, n] from the source-side stream, for
    desynchronizing retransmission timers.  [jitter t 0 = 0] without
    consuming randomness. *)

val totals : t -> totals
(** Snapshot of the faults injected so far. *)

val pp_totals : Format.formatter -> totals -> unit
