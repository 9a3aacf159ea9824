(** Multiple time-scale Markov-modulated sources (paper Section V-A,
    Fig. 4).

    The state space is a union of {e subchains}; transitions inside a
    subchain model fast dynamics (frame-to-frame correlation), while rare
    transitions between subchains model slow dynamics (scene changes).
    The rare-transition probabilities [eps] are the small parameters of
    the large-deviations analysis. *)

type subchain = { chain : Chain.t; rates : float array }
(** A fast time-scale subchain with its per-state rates (data/slot). *)

type t

val create : subchain array -> eps:float array array -> t
(** [create subchains ~eps] where [eps.(k).(j)] is the per-slot
    probability of jumping from subchain [k] to subchain [j].  Requires a
    square [eps] with zero diagonal, nonnegative entries and row sums
    < 1.  On a jump the target subchain is entered in a state drawn from
    its stationary distribution. *)

val n_subchains : t -> int
val subchain : t -> int -> subchain
val total_states : t -> int

val leave_probability : t -> int -> float
(** Per-slot probability of leaving the given subchain. *)

val slow_chain : t -> Chain.t
(** The chain over subchain indices: off-diagonal entries [eps], diagonal
    the stay probability. *)

val subchain_occupancy : t -> float array
(** Long-run fraction of time spent in each subchain (stationary law of
    {!slow_chain}). *)

val subchain_mean_rates : t -> float array
(** Stationary mean rate of each subchain considered in isolation — the
    values [m_k] of the paper. *)

val mean_rate : t -> float
(** Overall stationary mean rate: sum over subchains of occupancy times
    subchain mean. *)

val peak_rate : t -> float

val flatten : t -> Modulated.t
(** Exact single-chain representation over the union of states.  State
    [(k, s)] maps to index [offset_k + s]. *)

val fig4_example : unit -> t
(** The running example of the paper's Fig. 4: three subchains (quiet,
    normal, action) with rate levels spanning a 5x peak-to-mean ratio and
    rare transitions of order 1e-3 per slot. *)
