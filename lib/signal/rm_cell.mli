(** Resource-management cells for lightweight renegotiation signaling
    (Section III-B).

    An RCBR source reuses the ABR RM-cell mechanism: the explicit-rate
    field carries the {e difference} between the old and new rates, so
    in the paper's design the switch controller needs no per-VCI state.
    Deltas drift when cells are lost, so sources periodically send a
    resynchronization cell carrying the absolute rate (footnote 2 of
    the paper).  {!Port} keeps per-VCI rates anyway, so that it can
    apply such a resync and keep retransmitted requests idempotent. *)

type payload =
  | Delta of float  (** requested rate change, b/s (may be negative) *)
  | Resync of float  (** absolute current rate, b/s (nonnegative) *)

type t = { vci : int; payload : payload }

val delta : vci:int -> float -> t
val resync : vci:int -> float -> t
(** Requires a nonnegative rate. *)
