(** Multi-hop renegotiation (Section III-C).

    A connection traverses one port per hop; a renegotiation succeeds
    only if every hop grants it.  On a mid-path denial the hops already
    granted are rolled back, so bookkeeping stays consistent.  As the
    paper observes, the failure probability grows with hop count — each
    hop is an independent point of failure.

    Two signalling interfaces coexist.  {!renegotiate} is the idealized
    zero-loss exchange.  {!request}/{!transmit}/{!resync} model the same
    exchange over an unreliable network driven by a
    {!Rcbr_fault.Injector}: cells can be dropped, duplicated, reordered
    or delayed on every link, and a crashed port swallows them; requests
    carry an id so that retransmissions are idempotent at every hop. *)

type t

val create :
  Port.t list ->
  vci:int ->
  initial_rate:float ->
  (t, [ `Denied_at of int ]) result
(** Reserve [initial_rate] on every hop.  [Error (`Denied_at i)] when
    hop [i] cannot fit it (everything taken so far is released), so
    callers can tell admission failure from a bug. *)

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

val renegotiate : t -> float -> [ `Granted | `Denied_at of int ]
(** Request an absolute new rate over a lossless signalling plane.
    All-or-nothing across hops; on [`Denied_at i] (0-based hop index)
    the connection keeps its old rate everywhere. *)

val available : t -> float
(** The largest absolute rate this connection could renegotiate to right
    now: its current rate plus the tightest hop's free capacity.  This
    is the ER-field feedback of the ABR-style signaling (Section III-B):
    a denying switch tells the source what it {e can} have. *)

type request
(** An in-flight renegotiation: an id plus the delta cell built against
    the rate believed when it was created.  Retransmit the {e same}
    request until a response arrives — its id makes it idempotent. *)

val request : t -> id:int -> float -> request
(** [request t ~id target] builds a request for absolute rate [target].
    Ids must be fresh per logical request (never reused across
    different targets on the same path). *)

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
    {!resync} repairs). *)

val resync :
  t -> inj:Rcbr_fault.Injector.t -> unit
(** Send a fire-and-forget absolute-rate resync cell (footnote 2 of the
    paper) across the path, repairing any drift or leaked deltas at the
    hops it reaches.  Only call while no request is in flight. *)

val teardown : t -> unit
(** Release this connection on every hop (each port frees what {e it}
    believes the connection holds, so teardown is exact even after
    drift). *)
