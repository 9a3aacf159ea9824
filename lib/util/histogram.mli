(** Weighted histograms over discrete levels.

    The admission-control machinery (Section VI) describes a call by the
    fraction of time it spends at each bandwidth level; those empirical
    distributions are built and manipulated here.  Levels are identified
    by integer index into some external level table.

    Histograms grow on demand: {!add} on a level index beyond the
    current size extends the histogram (new levels start at weight 0),
    so one histogram can track a level table that is discovered
    incrementally.  The admission fast path relies on the in-place
    operations ({!add}, {!sub}, {!iter_support}) being allocation-free
    once the backing array has reached its high-water size. *)

type t
(** Mutable histogram: weight per level index. *)

val create : levels:int -> t
(** All weights zero.  Requires [levels > 0]. *)

val levels : t -> int

val ensure : t -> levels:int -> unit
(** Grow to at least [levels] levels (new levels at weight 0); never
    shrinks.  Amortized O(1) per added level. *)

val add : t -> int -> float -> unit
(** [add h level w] accumulates weight [w >= 0] on [level], growing the
    histogram if [level] is new. *)

val sub : t -> int -> float -> unit
(** [sub h level w] removes weight [w >= 0] from an existing [level].
    The result may drift a few ulp below zero through float
    cancellation; consumers treat [<= 0] as empty. *)

val weight : t -> int -> float
(** 0 for out-of-range levels. *)

val total : t -> float

val merge : t -> t -> t
(** Pointwise sum; the two histograms must have equal [levels].  Fresh
    allocation — hot paths use {!add_weighted} instead. *)

val add_weighted : into:t -> ?scale:float -> t -> unit
(** [add_weighted ~into ~scale src] merges [scale * src] into [into] in
    place, growing [into] as needed.  [scale] defaults to 1 and must be
    nonnegative. *)

val scale : t -> float -> t
(** Pointwise multiplication by a nonnegative factor. *)

val to_distribution : t -> float array
(** Normalized probabilities (summing to 1).  Requires positive total. *)

val normalize : t -> t
(** Fresh histogram with the same shape and total mass 1 (each weight
    divided by {!total}).  Requires positive total. *)

val log_mass : ?floor:float -> t -> int -> float
(** [log_mass h level] is the log of the level's normalized mass,
    floored at [log floor] so empty bins (and out-of-range levels) yield
    a finite penalty instead of [-inf]; an all-zero histogram yields
    [log floor] everywhere.  [floor] defaults to 1e-9 and must lie in
    (0, 1].  This is the soft-decision trellis idiom: unseen transitions
    stay expandable, merely expensive. *)

val mean_level_value : t -> values:float array -> float
(** Expectation of [values.(level)] under the normalized histogram. *)

val iter_support : t -> (int -> float -> unit) -> unit
(** [iter_support h f] calls [f level weight] for every level with
    strictly positive weight, in ascending level order, without
    allocating. *)
