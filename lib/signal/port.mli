(** Switch output-port controller.

    The whole per-renegotiation job of an RCBR switch: two lookups (VCI
    to port, port to utilization) and one comparison — "the logic to
    modify the ER field with RCBR is simpler than that required for
    fair-share computation in ABR".

    The paper's delta cells would let a port keep only its aggregate
    reservation.  This port also keeps each VCI's believed rate, so that
    [Resync] cells can repair the drift lost cells cause and teardown
    frees exactly what the port holds, and each VCI's last request id,
    so that requests are idempotent.

    For fault injection the port also models failure: it can {!crash}
    (losing every reservation, like a real switch losing soft state)
    and {!recover} empty, and it offers an {e idempotent} request
    interface ({!process_request} / {!rollback_request}) so that
    retransmitted or duplicated RM cells of the same request never
    double-apply a delta. *)

type t

val create : capacity:float -> unit -> t
(** Empty port. *)

val capacity : t -> float
val reserved : t -> float
(** Aggregate reservation the controller believes is in force. *)

val vci_rate : t -> int -> float
(** Believed rate of a VCI; 0 if unknown. *)

val process : t -> Rm_cell.t -> [ `Granted | `Denied ]
(** Apply an RM cell: compute the change it asks for ([Delta d] asks
    for [d], [Resync r] for [r] minus the VCI's believed rate), grant
    it iff [reserved + change <= capacity] (decreases always succeed),
    and update the bookkeeping.  A crashed port denies everything. *)

val process_request : t -> req_id:int -> Rm_cell.t -> [ `Granted | `Denied ]
(** Idempotent {!process}: if this VCI's most recent request has the
    same [req_id] and its change is still applied, acknowledge
    [`Granted] without reapplying — so retransmissions and duplicated
    cells are harmless.  A request whose change was rolled back (or
    denied) is evaluated afresh. *)

val rollback_request : t -> req_id:int -> Rm_cell.t -> unit
(** Undo request [req_id] by applying [cell] (the reverse delta) — but
    only if that request's change is currently applied here, making
    duplicated rollback cells harmless too. *)

val release : t -> vci:int -> unit
(** Tear-down: return the VCI's reservation to the pool and forget the
    VCI.  The amount freed is what the {e port} believes the VCI holds —
    exact even when signalling faults have made the source's view
    drift. *)

val crash : t -> unit
(** The port fails: it loses every reservation and all per-VCI state,
    and denies/ignores all signalling until {!recover}. *)

val recover : t -> unit
(** The port comes back up, empty — connections re-admit from scratch
    (typically via their periodic resync cells). *)

val is_up : t -> bool

val drift : t -> actual:float -> float
(** [reserved -. actual]: the bookkeeping error against the true total
    source rate, the quantity periodic resync bounds. *)

val view : t -> index:int -> Rcbr_fault.Invariant.port_view
(** Snapshot for the conservation invariant checker. *)
