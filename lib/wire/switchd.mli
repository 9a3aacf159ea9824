(** The switch daemon's protocol core, factored out of the socket loop
    so it can be driven byte-by-byte in tests.

    A {!t} owns the real network state — {!Rcbr_net.Link} accounting
    over a {!Rcbr_net.Topology}, one {!Rcbr_net.Store} handle per live call,
    an optional {!Rcbr_admission.Controller} gating setups — and
    dispatches decoded {!Codec} messages against it.  Each client
    connection gets a {!conn}: a {!Frame.Reader} tolerating partial
    reads and pipelined messages, plus the connection's idempotency
    cache.  A request id seen before is answered with the cached reply
    frame and never re-applied, so client retransmissions (duplicates
    on the wire) cannot double-apply a setup, renegotiation or
    teardown.

    Time is an input ([~now], seconds since an arbitrary origin): the
    core never reads a clock, keeping it inside the repo's determinism
    contract (DESIGN.md §8) — the socket loop in [bin/rcbr_switchd.ml]
    supplies wall time under an explicit lint allowlist grant. *)

type config = {
  topology : Rcbr_net.Topology.t;
  controller : Rcbr_admission.Controller.t option;
      (** admission gate applied to setups on top of the per-link
          capacity fit; [None] admits whatever fits *)
}

val default_config : Rcbr_net.Topology.t -> config

type stats = {
  mutable setups : int;
  mutable renegotiations : int;
  mutable teardowns : int;
  mutable deltas : int;
  mutable resyncs : int;
  mutable audits : int;
  mutable denials : int;
  mutable duplicates : int;  (** idempotency-cache hits *)
  mutable decode_errors : int;  (** frames that failed {!Codec.decode} *)
  mutable stray_cells : int;  (** RM cells for unknown VCIs *)
  mutable unexpected : int;  (** reply-typed messages sent by a client *)
  mutable underflows : int;  (** deltas clamped at rate 0 *)
}

type t

val create : config -> t
val stats : t -> stats
val links : t -> Rcbr_net.Link.t array
(** The links' accounting.  A request advances only its own call's
    route links ({!Rcbr_net.Store.advance}), so each link's integrals
    (offered, granted and lost bits, call-seconds) run up to its own
    last change, [acct.last], not to the latest request.  That is
    exact — only a request of a call crossing a link moves the link's
    demand or call count — but a reader of the integrals must first
    {!Rcbr_net.Link.advance} every link to its own [now]. *)

val sessions : t -> int
(** Live call count. *)

(** {1 Connections} *)

type conn

val connect : t -> conn
val handle : t -> conn -> now:float -> Codec.t -> Codec.t option
(** Dispatch one decoded message; the reply to send back, if any
    (RM cells are fire-and-forget).  Duplicate request ids short-circuit
    to the cached reply. *)

val feed :
  t ->
  conn ->
  now:float ->
  bytes ->
  off:int ->
  len:int ->
  (string -> unit) ->
  (unit, Codec.error) result
(** [feed t conn ~now b ~off ~len reply] serves [len] bytes of [b]
    from [off], as read from the socket, and hands each reply frame to
    [reply] the moment it is made, in order — the daemon writes it
    straight to the socket.  [Error e] means framing is unrecoverable
    and the connection must be closed; the frames before the fault have
    been served and answered.  Frames that fail to decode are counted
    and skipped — the stream stays in sync.  The bytes are copied into
    the connection's {!Frame.Reader}, so [b] may be reused at once. *)

val input : t -> conn -> now:float -> string -> (string list, Codec.error) result
(** {!feed} of a whole string, with the reply frames collected: [Ok
    frames] in order, or [Error e] (and no frames) when framing is
    lost. *)

(** {1 Audit and drain} *)

val audit : t -> int
(** Conservation violations right now: every link's demand must equal
    the sum of its sessions' applied rates ({!Rcbr_net.Store.audit},
    summed in handle order — a pure function of the request sequence). *)

val total_demand : t -> float

type drain_report = { live_sessions : int; violations : int; demand : float }

val drain : t -> drain_report
(** Enter draining mode (new setups are denied with [Draining]) and run
    the final conservation audit. *)
