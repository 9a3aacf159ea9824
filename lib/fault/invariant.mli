(** Conservation-of-bandwidth invariant checker.

    After {e any} interleaving of grants, denials, rollbacks, crashes,
    resyncs and teardowns, every switch port must satisfy:

    - its aggregate reservation is nonnegative,
    - it never exceeds the port capacity, and
    - it equals the sum of the per-VCI rates the port believes.

    The checker works on plain {!port_view} data so that any layer —
    real {!Rcbr_signal} ports, or the abstract demand bookkeeping of the
    call-level simulators — can be audited without a dependency cycle. *)

type port_view = {
  index : int;  (** caller's label for the port (hop number, link id) *)
  capacity : float;
  reserved : float;  (** aggregate reservation the port believes *)
  vci_rates : (int * float) list;  (** per-VCI beliefs *)
}

type violation = { port : int; what : string }

val check : ?check_capacity:bool -> port_view array -> violation list
(** All violations found, in port order.  A tolerance of [1e-6], scaled
    by the port capacity, absorbs float rounding.
    [check_capacity] (default true) may be disabled for bookkeeping
    that intentionally tracks demand beyond capacity (settle
    semantics). *)
