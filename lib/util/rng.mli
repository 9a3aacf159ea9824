(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit state
    advanced by a Weyl constant and finalized by an avalanche mixer.  It is
    fast, passes BigCrush when used as intended, and supports {!split} for
    creating statistically independent substreams (one per simulated
    source, replication, ...). *)

type t
(** Mutable generator state: the 64-bit splitmix state in 8 bytes, so
    a draw that returns an [int] allocates nothing. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the continuation of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n-1]].  Requires [n > 0]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate).  Requires [rate > 0]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample by Box-Muller. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of
    a Bernoulli(p) sequence, i.e. support {0, 1, ...}.
    Requires [0 < p <= 1]. *)

val choose : t -> float array -> int
(** [choose t weights] samples an index with probability proportional to
    its (nonnegative) weight.  Requires a positive total weight. *)
