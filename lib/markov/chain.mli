(** Finite discrete-time Markov chains.

    The traffic models of the paper (Section V-A) are Markov-modulated
    processes; this module supplies the underlying chain machinery:
    validation, stationary distributions, reachability, and simulation. *)

type t

val create : float array array -> t
(** [create p] builds a chain from a stochastic matrix: square,
    nonnegative entries, rows summing to 1 within 1e-9 (rows are
    renormalized exactly).  Raises [Invalid_argument] otherwise. *)

val n_states : t -> int
val prob : t -> int -> int -> float
val matrix : t -> Rcbr_util.Matrix.t

val stationary : t -> float array
(** Stationary distribution [pi] with [pi P = pi], [sum pi = 1], obtained
    by a direct linear solve.  Requires an irreducible chain for the
    result to be the unique stationary law. *)

val step : t -> Rcbr_util.Rng.t -> int -> int
(** One transition from the given state. *)

val simulate : t -> Rcbr_util.Rng.t -> init:int -> steps:int -> int array
(** State sequence of length [steps], starting from [init] (the initial
    state is included as element 0). *)
