(** Deterministic load-generation core for the switch daemon.

    Everything here is pure or seeded — no sockets, no clock — so the
    [bin/rcbr_loadgen] pump loop is a thin transport shell and two runs
    of the same seed produce the same op sequence, the same mangler
    draws, and (timeouts being generous next to a local socket's RTT)
    the same per-request outcomes, hence the same {!outcome_hash}. *)

type op =
  | Op_setup of { call : int; route : int array; transit : bool; rate : float }
  | Op_reneg of { call : int; rate : float }
  | Op_delta of { call : int; delta : float }
      (** fire-and-forget RM cell; no reply, no retransmission *)
  | Op_resync of { call : int; rate : float }  (** fire-and-forget *)
  | Op_teardown of { call : int }

val message_of_op : req:int -> op -> Codec.t
(** The wire message for one attempt of [op]; [req] is ignored by the
    fire-and-forget cells. *)

val storm :
  topology:Rcbr_net.Topology.t ->
  calls:int ->
  rounds:int ->
  rate_max:float ->
  rm_fraction:float ->
  seed:int ->
  conns:int ->
  op list array
(** One op list per connection.  Call [c] lives on connection
    [c mod conns] and walks route [c mod n_routes].  Each call is set
    up, renegotiated once per round — with probability [rm_fraction]
    the change travels as a delta RM cell instead of an acked
    renegotiation, followed every third round by a resync cell — and
    torn down.  All draws come from per-connection splitmix streams, so
    the op lists depend only on the arguments. *)

(** {1 Request bookkeeping} *)

val backoff : base:float -> attempt:int -> float
(** Exponential: [base *. 2. ** attempt], the delay armed after the
    [attempt]-th transmission (0-based). *)

type outcome =
  | Acked of float  (** the applied rate the switch confirmed *)
  | Denied of Codec.deny_reason
  | Gave_up  (** retransmit budget exhausted with no reply *)
  | Sent  (** fire-and-forget cell: offered to the wire, nothing more *)

val outcome_hash : (int * outcome) list -> int
(** Order-insensitive digest: the pairs are sorted by request id before
    mixing, so concurrent connections hash identically however their
    completions interleave.  Equal hashes across runs mean identical
    per-request outcomes.  Registered as a determinism sink (T001) in
    the typed lint (DESIGN.md §14): renaming or moving it must update
    [Tlint.repo_config]. *)
