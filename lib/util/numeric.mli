(** Root finding and one-dimensional optimization.

    The large-deviations layer needs to invert monotone functions
    (equivalent bandwidth, Chernoff capacity) and maximize concave ones
    (Legendre transforms); these small, dependency-free solvers cover
    those cases. *)

val find_min_such_that :
  ?tol:float -> pred:(float -> bool) -> float -> float -> float
(** [find_min_such_that ~pred lo hi] assumes [pred] is monotone
    (false ... false true ... true) on [\[lo, hi\]] and returns the
    smallest argument satisfying it, within the relative tolerance [tol]
    (default 1e-9) or after 200 halvings.  Returns [hi] if even [hi]
    fails the predicate, [lo] if [lo] already satisfies it. *)

val golden_max : f:(float -> float) -> float -> float -> float
(** [golden_max ~f lo hi] returns the argmax of a unimodal [f] on
    [\[lo, hi\]] by golden-section search, to a relative bracket of
    1e-9 or after 200 steps. *)

val log_sum_exp : float array -> float
(** Numerically stable [log (sum_i exp x_i)].  Requires a non-empty
    array; [-infinity] entries are permitted. *)
