(** The per-call signalling machine: setup, renegotiations over a
    possibly unreliable signalling plane (with settle/deny semantics),
    and departure, for calls held in a {!Store}.

    A call walks the [(duration_s, rate)] pieces of its schedule on a
    {!Rcbr_queue.Events} engine.  Each rate change is signalled across
    the call's route through the driver's fault {!plane}; the change
    cell can be dropped ({!faults.rm_drop}) and is then retransmitted after
    {!faults.retx_timeout} until {!faults.max_retransmits}, after which
    the change is applied anyway — settle semantics: the overload shows
    up in the demand accounting, exactly as for a denied increase.  A
    newer change for the same call (or its departure) bumps the call's
    {!Store.gen} and cancels the pending retransmission.

    What a delivered change does to the call — the engine's counting,
    its controller callbacks, its audit cadence — lives in the
    {!driver} hooks, which run the shared call steps and settle link
    demand through {!Store.settle}; the machine itself (fault draws,
    retransmit scheduling, generation bookkeeping) is shared.
    Per-call state and the route queries are {!Store}'s.

    Session owns {!Store.cursor} for the calls it drives: the cursor
    holds the index of the call's next piece.  A call's piece event is
    one closure, built once by {!play} and rescheduled after every
    piece; a signalled change builds no closure unless its cell is
    dropped, when the retransmission timer needs one. *)

(** {1 Faults} *)

type faults = {
  rm_drop : float;  (** loss probability of a signalling cell (see {!drop_model}) *)
  retx_timeout : float;  (** seconds before a lost cell is re-sent *)
  max_retransmits : int;
      (** per rate change; afterwards the change is applied anyway
          (settle semantics) *)
  crashes : (int * float * float) list;
      (** [(link, at, recover)] signalling blackouts: increases crossing
          the link while it is down are denied *)
  fault_seed : int;
      (** faults draw from their own stream, so [rm_drop = 0.] and no
          crashes reproduce the fault-free run bit for bit *)
  check_invariants : bool;
      (** periodically audit demand = sum of crossing calls' rates *)
}

val no_faults : faults
(** No loss, no crashes, no auditing. *)

val validate : faults -> unit
(** Asserts the probability range, positive timeout and nonnegative
    retransmit cap. *)

type drop_model =
  | Per_cell  (** one loss draw per transmission (the MBAC link) *)
  | Per_link
      (** one draw per route link, short-circuiting at the first loss
          (the multi-hop experiment: every hop is a point of failure) *)

type counters = {
  mutable rm_lost : int;  (** signalling cells the fault plane swallowed *)
  mutable retransmits : int;
  mutable abandoned : int;  (** changes applied only after give-up *)
  mutable superseded : int;  (** retransmissions cancelled by a newer change *)
  mutable invariant_failures : int;  (** 0 unless there is a bookkeeping bug *)
}

type pending = {
  tok : Rcbr_queue.Events.token;  (** the armed retransmission timer *)
  at : float;  (** when it would fire *)
  bound : float;
      (** horizon up to which a cancelled timer counts as superseded
          (the seed engine only counted timers that actually popped,
          i.e. those at or before the driver's run bound) *)
}

type plane = {
  faults : faults;
  frng : Rcbr_util.Rng.t;  (** the separate fault stream *)
  drop : drop_model;
  counters : counters;
  mutable armed : pending option array;
      (** the armed retransmission per {!Store.handle}, grown on first
          arm; cancelled out of the event queue by the next change or
          the departure, so dead timers never accumulate under storm
          workloads *)
}

val plane : drop:drop_model -> faults -> plane
(** Fresh zeroed counters, no armed timers and a [fault_seed]ed
    stream. *)

(** {1 The state machine} *)

type lifetime =
  | Hold_until of float
      (** loop the pieces until the horizon (the multi-hop calls) *)
  | Depart_after_pieces of (Store.handle -> now:float -> unit)
      (** play the pieces once, then run the departure hook (the MBAC
          calls); pending retransmissions are cancelled first, so the
          hook may release the handle *)

type driver = {
  store : Store.t;  (** where the driven calls live *)
  plane : plane;
      (** the signalling plane; one built from {!no_faults} (or any
          [rm_drop = 0.]) never draws and never drops, so it is the
          reliable plane *)
  lifetime : lifetime;
  before : now:float -> unit;
      (** accounting hook at the top of every piece event *)
  on_attempt : now:float -> unit;
      (** accounting hook at the top of every transmission attempt *)
  retry : now:float -> bool;
      (** guard run when a retransmission timer fires (after the [gen]
          check); returning false drops the retransmission silently *)
  deliver : Store.handle -> now:float -> rate:float -> unit;
      (** the change cell arrived (or the machine gave up): apply the
          rate — demand update, denial counting, controller callbacks *)
}

val cancel_pending : driver -> Store.handle -> unit
(** Bump the call's [gen] and cancel its armed retransmission, if any,
    out of the event queue (counting it as superseded per
    [pending.bound]).  Must run before a signalled handle is released:
    {!Store.acquire} restarts [gen] at 0, so a surviving timer could
    otherwise pass the generation guard of the handle's next call. *)

val play :
  driver -> Store.handle -> (float * float) array -> Rcbr_queue.Events.t ->
  unit
(** [play d h pieces] sets the call's cursor and returns its piece
    event, the [Events] callback that fires the piece under the cursor
    (signal its rate, advance the cursor, schedule itself again after
    the piece's duration), or departs / stops at the horizon per
    [d.lifetime].  A [Hold_until] call starts at piece 0: schedule the
    event at the call's start.  A [Depart_after_pieces] call starts at
    piece 1, because piece 0 is the setup the caller already settled at
    admission: schedule the event when piece 0 ends. *)

val signal :
  driver -> Store.handle -> rate:float -> Rcbr_queue.Events.t -> unit
(** One rate change: bump [gen] and run transmission attempts until
    the cell is delivered, abandoned (then delivered with settle
    semantics) or superseded.  Exposed for drivers that signal outside
    the piece walk. *)
