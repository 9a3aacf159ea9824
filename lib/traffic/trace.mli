(** Frame-level traffic traces.

    A trace is the per-frame data volume (in bits) of a video stream at a
    fixed frame rate — the slotted-time workload consumed by every
    algorithm in the repository (one slot = one frame, as in Section
    IV-A). *)

type t

val create : fps:float -> float array -> t
(** [create ~fps frames] with [frames.(i)] the bits of frame [i].
    Requires [fps > 0], at least one frame, nonnegative sizes.  The array
    is copied. *)

val fps : t -> float
val length : t -> int
val frame : t -> int -> float

val raw_frames : t -> float array
(** The trace's own frame array, {e not} a copy — read-only access for
    hot loops (the fluid-queue kernel) that cannot afford a copy.
    Mutating it is undefined behaviour. *)

val prefix_sums : t -> float array
(** Cumulative arrivals: element [i] is the total bits of frames
    [0 .. i-1] (so the array has [length t + 1] entries and element 0 is
    0).  Computed once at construction and shared — do {e not} mutate.
    [prefix.(j) -. prefix.(i)] is the bits of frames [i .. j-1]. *)

val slot_duration : t -> float
(** Seconds per frame, [1 /. fps]. *)

val duration : t -> float
(** Total seconds. *)

val total_bits : t -> float

val mean_rate : t -> float
(** Long-term average in bits per second. *)

val peak_rate : t -> float
(** Largest single-frame rate in bits per second. *)

val window_max_bits : t -> int -> float
(** [window_max_bits t w] is the maximum total bits over any [w]
    consecutive frames.  Requires [1 <= w <= length]. *)

val rate_in_window : t -> lo:int -> hi:int -> float
(** Average rate (b/s) over frames [lo..hi] inclusive. *)

val shift : t -> int -> t
(** Circular shift: frame [i] of the result is frame [(i + k) mod n] of
    the input — the paper's "randomly shifted versions" of a trace. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous slice. *)

val sustained_peak : t -> threshold:float -> int
(** Length (in frames) of the longest run whose every frame rate is at
    least [threshold] b/s. *)

val save : t -> string -> unit
(** Text format: first line [fps], then one frame size per line. *)

val load : string -> t

val pp_summary : Format.formatter -> t -> unit
