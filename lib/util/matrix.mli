(** Small dense matrices over floats.

    Enough linear algebra for the Markov-chain layer: products, linear
    solves (stationary distributions), and the Perron root (dominant
    eigenvalue of a nonnegative matrix) that defines the log-MGF of a
    Markov additive process. *)

type t
(** Immutable-by-convention dense matrix. *)

val of_rows : float array array -> t
(** Copies its argument; all rows must have equal length. *)

val rows : t -> int
val cols : t -> int
val scale_rows : t -> float array -> t
(** [scale_rows m d] multiplies row i of [m] by [d.(i)] — i.e.
    [diag d * m]. *)

val mat_vec : t -> float array -> float array

val solve : t -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  Raises [Failure] on a (numerically) singular matrix. *)

val perron_root : t -> float
(** Dominant eigenvalue of a nonnegative matrix with a strictly positive
    power (power iteration on an added tiny regularizer keeps reducible
    inputs from stalling), to a relative tolerance of 1e-12 or after
    10 000 iterations.  Requires a square matrix with nonnegative
    entries. *)
