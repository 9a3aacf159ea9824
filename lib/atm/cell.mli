(** ATM cells.

    Fixed-size 53-byte cells with a 48-byte payload; a video frame of
    [b] bits occupies [ceil (b / 384)] cells.  Only the accounting
    matters to the simulations, not the byte layout. *)

val payload_bits : float
(** 384 — 48 bytes of payload. *)

val wire_bits : float
(** 424 — 53 bytes on the wire. *)

val cells_of_bits : float -> int
(** Cells needed to carry the given payload bits.  0 for 0. *)

val service_time : port_rate:float -> float
(** Seconds to transmit one cell at the given port rate (b/s). *)

val cell_rate : rate:float -> float
(** Cells per second of a source sending payload at [rate] b/s. *)
