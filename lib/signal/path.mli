(** Multi-hop renegotiation (Section III-C).

    A connection traverses one port per hop; a renegotiation succeeds
    only if every hop grants it.  As the paper observes, the failure
    probability grows with hop count — each hop is an independent point
    of failure.

    Every exchange is one RM-cell round trip, walked hop by hop over a
    signalling plane driven by a {!Rcbr_fault.Injector}: cells can be
    dropped, duplicated, reordered or delayed on every link.  The
    rollback rule: a live port that cannot fit the change denies it, and
    each hop the denial passes on its way back to the source rolls the
    request back; a port that is down swallows the cell, so the source
    learns nothing and nothing rolls back — the idempotent
    retransmission (requests carry an id) or the next {!resync} settles
    the hops already passed.  Setup ({!create}) is the path's first
    request over a plane that loses nothing. *)

type t

val create :
  Port.t list ->
  vci:int ->
  initial_rate:float ->
  (t, [ `Denied_at of int ]) result
(** Reserve [initial_rate] on every hop.  [Error (`Denied_at i)] when
    hop [i] cannot fit it or is down, so callers can tell admission
    failure from a bug.  Every hop the request reached is released:
    the hops before [i], and [i] itself when it denied.  The hops after
    [i] are left alone. *)

val create_exn : Port.t list -> vci:int -> initial_rate:float -> t
(** {!create}, raising [Failure] on denial — for callers that sized the
    network so setup cannot fail. *)

val hops : t -> int
val rate : t -> float
val vci : t -> int

val ports : t -> Port.t array
(** The underlying ports, in hop order — exposed for fault injection
    (crash/recover) and invariant checking.  Do not mutate reservations
    behind the path's back. *)

val available : t -> float
(** The largest absolute rate this connection could renegotiate to right
    now: its current rate plus the tightest hop's free capacity.  This
    is the ER-field feedback of the ABR-style signaling (Section III-B):
    a denying switch tells the source what it {e can} have. *)

type request
(** An in-flight renegotiation: an id plus the delta cell built against
    the rate believed when it was created.  Retransmit the {e same}
    request until a response arrives — its id makes it idempotent. *)

val request : t -> float -> request
(** [request t target] builds a request for absolute rate [target],
    numbered after every request made on [t] before it. *)

val transmit :
  t ->
  inj:Rcbr_fault.Injector.t ->
  request ->
  [ `Granted of int | `Denied of int * float | `Lost ]
(** One transmission attempt of [req] across the path, consuming fault
    decisions from [inj].  [`Granted extra]: every hop applied the
    delta and the acknowledgment reached the source [extra] slots late
    (sum of injected delays); the path's {!rate} is updated.
    [`Denied (hop, er)]: [hop] refused; hops before it were rolled back
    by the returning cell, and [er] is the denying hop's explicit-rate
    feedback.  [`Lost]: the request or its response vanished (fault or
    crashed port) — the source learns nothing and should retransmit the
    same request after a timeout; hops already passed keep the delta
    until then (idempotency makes the retransmission safe, and a denial
    response lost mid-rollback leaks reservations that the next
    {!resync} repairs).  Over a lossless plane ([Plan.null]) the answer
    is never [`Lost] while every port is up. *)

val resync :
  t -> inj:Rcbr_fault.Injector.t -> unit
(** Send a fire-and-forget absolute-rate resync cell (footnote 2 of the
    paper) across the path, repairing any drift or leaked deltas at the
    hops it reaches.  Only call while no request is in flight. *)

val teardown : t -> unit
(** Release this connection on every hop (each port frees what {e it}
    believes the connection holds, so teardown is exact even after
    drift). *)
