(** Weighted histograms over discrete levels.

    A histogram holds a weight per level, identified by integer index
    into some external level table; the beam search learns its
    trellis priors in them ({!log_mass}).  Histograms grow on demand:
    {!add} on a level index beyond the current size extends the
    histogram (new levels start at weight 0), so one histogram can
    track a level table that is discovered incrementally.  (The
    admission controller keeps its level-indexed aggregates in plain
    float arrays instead: under separate compilation each call here
    boxes a float.) *)

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

val weight : t -> int -> float
(** 0 for out-of-range levels. *)

val total : t -> float

val log_mass : t -> int -> float
(** [log_mass h level] is the log of the level's normalized mass,
    floored at [log 1e-9] so empty bins (and out-of-range levels) yield
    a finite penalty instead of [-inf]; an all-zero histogram yields
    [log 1e-9] everywhere.  This is the soft-decision trellis idiom:
    unseen transitions stay expandable, merely expensive. *)
