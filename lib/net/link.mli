(** Per-link simulation state: demand/grant/loss accounting and crash
    blackout windows.

    One record unifies what the call-level simulators used to keep
    separately — the MBAC link's bit counters and the multi-hop
    experiment's per-hop demand cells and merged crash intervals.  The
    fields are exposed because the experiment drivers update them with
    driver-specific float expressions that must stay bit-identical to
    the historical code (see DESIGN.md §10); treat them as owned by the
    driver that created the link.

    The six mutable accounting floats sit in their own all-float record
    {!acct}, which OCaml stores unboxed: {!advance} and [Store.settle],
    which run on every event of every engine, update them in place
    without allocating or running the write barrier.  In a record that
    mixes them with [blackouts] and [n_calls], each write would box its
    float. *)

type acct = {
  mutable demand : float;  (** sum of the crossing calls' demanded rates *)
  mutable last : float;  (** time of last {!advance} *)
  mutable offered_bits : float;
  mutable lost_bits : float;
  mutable granted_bits : float;
  mutable call_seconds : float;  (** integral of [n_calls], for the mean *)
}

type t = {
  capacity : float;  (** b/s *)
  blackouts : (float * float) array;
      (** merged, start-sorted [at, recover) crash windows; see {!down} *)
  acct : acct;
  mutable n_calls : int;
}

val create : ?blackouts:(float * float) array -> capacity:float -> unit -> t
(** Zeroed accounting.  Requires a positive capacity. *)

val of_topology : ?crashes:(int * float * float) list -> Topology.t -> t array
(** One link state per topology link, in link-id order; [crashes]
    [(link, at, recover)] entries are grouped per link and compiled
    with {!compile_blackouts} (ids out of range are ignored, matching
    the historical hop filter). *)

val advance : t -> now:float -> unit
(** Integrate offered/granted/lost bits and call-seconds since [last]
    under the current demand, then set [last <- now].  No-op when
    [now <= last]. *)

val reset_window : t -> unit
(** Zero the per-window integrals (bits and call-seconds) — the MBAC
    sampling window boundary.  Demand and [last] are kept. *)

val down : t -> now:float -> bool
(** Whether [now] falls inside a blackout window — a binary search for
    the rightmost window starting at or before [now]. *)

val compile_blackouts : (float * float) list -> (float * float) array
(** Sort and merge overlapping [at, recover) windows into a
    start-sorted disjoint array (empty windows dropped), so membership
    is a binary search equal to [List.exists] over the raw list. *)
