(** Byte-level wire format for the RCBR signalling plane.

    Every signalling message — RM delta/resync cells and session
    setup/renegotiate/teardown with their ack/deny/audit replies — has a
    binary encoding: one tag byte followed by fixed-width big-endian
    fields (u32 ids, IEEE-754 f64 rates, u16 route entries).  On the
    wire a message travels inside a length-prefixed frame
    ({!frame} / {!Frame.Reader}), so a stream survives partial reads and
    pipelined messages.

    The codec is a total, error-typed inversion pair in the style of
    mitls-fstar's [renegotiationInfoBytes]/[parseRenegotiationInfo]:
    {!decode} never raises — every malformed, truncated, or
    trailing-garbage buffer maps to a typed {!error} — and {!decode} of
    [frame m]'s payload is [Ok m] for every valid message, a property
    the test suite checks by qcheck round-trip and byte-fuzz, next to
    golden frames that pin the bytes themselves. *)

(** {1 Messages} *)

type deny_reason =
  | Capacity  (** the rate does not fit on every route link *)
  | Blackout  (** a route link is inside a crash blackout *)
  | Unknown_call  (** no session with this call id *)
  | Duplicate_call  (** setup for a call id that is already live *)
  | Bad_route  (** a route link id is outside the switch's topology *)
  | Draining  (** the switch is shutting down and takes no new work *)
  | Downgraded
      (** the demanded rate was granted only at a lower service tier
          (Downgrade model, DESIGN.md section 15); the change was not
          applied as demanded *)

type t =
  | Delta of { vci : int; delta : float }
      (** RM cell: change the rate by [delta] b/s (may be negative).
          Fire-and-forget — never acked, drift is repaired by resync. *)
  | Resync of { vci : int; rate : float }
      (** RM cell: the absolute current rate, repairing delta drift. *)
  | Setup of {
      req : int;
      call : int;
      route : int array;  (** link ids, in hop order; 1..65535 entries *)
      transit : bool;
      rate : float;
    }
  | Renegotiate of { req : int; call : int; rate : float }
  | Teardown of { req : int; call : int }
  | Ack of { req : int; applied : float }
  | Deny of { req : int; reason : deny_reason }
  | Audit_request of { req : int }
  | Audit_reply of {
      req : int;
      sessions : int;
      violations : int;
      demand : float;  (** sum of link demands, b/s *)
    }

val req : t -> int option
(** The request id carried by request/reply messages; [None] for the
    fire-and-forget RM cells. *)

(** {1 Validity}

    Encodable messages satisfy: ids ([vci], [req], [call], [sessions],
    [violations]) in [0, 2^32); route non-empty with at most 65535
    entries, each in [0, 2^16); rates and [applied]/[demand] finite,
    with [rate] nonnegative where it is an absolute rate ([Resync],
    [Setup], [Renegotiate], [Ack]); [delta] and [demand] finite but of
    any sign.  {!decode} enforces the same constraints, so the payloads
    {!frame} writes are exactly the buffers that decode [Ok]. *)

val validate : t -> string option
(** [None] when the message is encodable, or a description of the first
    violated constraint. *)

(** {1 The inversion pair} *)

type error =
  | Empty  (** zero-length payload *)
  | Bad_tag of int
  | Truncated of { tag : int; need : int; have : int }
      (** payload shorter than the message's fields require *)
  | Trailing of { tag : int; extra : int }
      (** bytes left over after a complete message *)
  | Bad_bool of { tag : int; byte : int }
  | Bad_reason of int
  | Bad_rate of { field : string; value : float }
      (** non-finite, or negative where an absolute rate is required *)
  | Empty_route  (** a [Setup] with a zero-length route *)
  | Oversized of { length : int; max : int }
      (** framing: a length prefix beyond {!max_frame} — unrecoverable
          on a stream, the connection must be torn down *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val decode : string -> (t, error) result
(** Total: returns a typed [Error] on every buffer that is not exactly
    the payload of one valid message's {!frame}, and never raises. *)

(** {1 Framing} *)

val max_frame : int
(** Upper bound on an encodable payload (a maximal-route [Setup] plus
    slack).  {!Frame.Reader} rejects length prefixes beyond it. *)

val frame : t -> string
(** The unit of transmission: a 4-byte big-endian payload length, then
    the payload (the tag byte and the message's fields), written into
    one string of exactly that size.  Raises [Invalid_argument] with
    the {!validate} description on an unencodable message —
    construction-time discipline, mirrored by the parser so the pair
    stays inverse.  Checking a valid message allocates nothing, so
    a frame costs its one string. *)
