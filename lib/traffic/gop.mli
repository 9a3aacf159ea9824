(** MPEG group-of-pictures structure.

    MPEG-1 coders emit I, P and B frames in a fixed repeating pattern;
    the short time-scale burstiness of the paper's traces ("the I, B, and
    P frame structure is well known", Section II) comes from the size
    disparity between the kinds.  This module captures the pattern and
    the relative frame-size weights. *)

type kind = I | P | B

type pattern
(** A repeating frame-kind sequence with per-kind size multipliers. *)

val make : kinds:kind array -> weight_i:float -> weight_p:float -> weight_b:float -> pattern
(** Requires a non-empty kind sequence and positive weights. *)

val kind_at : pattern -> int -> kind
(** Frame kind at (global) frame index [i], repeating the pattern. *)

val weight_at : pattern -> int -> float
(** Size multiplier of frame [i]. *)

val mean_weight : pattern -> float
(** Average multiplier over one GOP; dividing by it normalizes the
    pattern to unit mean so the scene process controls the rate. *)
