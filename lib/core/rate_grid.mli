(** Discrete bandwidth levels.

    Renegotiation requests are quantized to a finite set of rates: the
    optimal algorithm searches over the set (the paper uses ~20 levels
    uniform between 48 kb/s and 2.4 Mb/s) and the online heuristic
    rounds its prediction up to a multiple of the granularity Delta
    (formula (7)). *)

type t

val uniform : lo:float -> hi:float -> levels:int -> t
(** [levels] evenly spaced rates from [lo] to [hi] inclusive.  Requires
    [0 <= lo < hi] and [levels >= 2]. *)

val of_rates : float array -> t
(** Arbitrary ascending positive rates. *)

val covering : t -> peak:float -> t
(** Ensure the grid can serve a workload with the given peak demand:
    appends [peak] as a top level if the current top is below it. *)

val levels : t -> int
val rate : t -> int -> float
val top : t -> float

val quantize_up : t -> float -> float
(** Smallest level [>= x] (the top level if [x] exceeds it). *)

val index_up : t -> float -> int
(** Index of {!quantize_up}. *)
