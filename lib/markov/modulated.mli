(** Markov-modulated rate processes.

    A fluid source whose per-slot data volume is a function of the state
    of a finite Markov chain — the basic single time-scale traffic model
    whose equivalent bandwidth the paper's analysis builds on. *)

type t

val create : Chain.t -> rates:float array -> t
(** [create chain ~rates] attaches a per-state rate (data per slot,
    nonnegative) to each chain state.  [rates] length must equal the
    number of states. *)

val chain : t -> Chain.t
val rates : t -> float array

val mean_rate : t -> float
(** Stationary mean data per slot. *)

val peak_rate : t -> float
(** Maximum per-state rate. *)

val simulate : t -> Rcbr_util.Rng.t -> steps:int -> float array
(** Per-slot data volumes along a simulated state path that starts in a
    state drawn from the stationary distribution. *)

val simulate_states : t -> Rcbr_util.Rng.t -> steps:int -> int array
