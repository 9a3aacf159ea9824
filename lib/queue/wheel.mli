(** The event queue of every simulator: a binary min-heap keyed by a
    float time, with cancellable entries.

    Ties fire in push order (a global sequence number), so the pop
    order is the (time, seq) order of the pushed entries — checked
    against a linear-scan model in [test/test_queue.ml].  Push, pop and
    {!cancel} are O(log n); a cancelled entry leaves nothing behind.
    Times must be finite and non-negative.

    The heap is a struct of arrays: times in a [float array], sequence
    numbers and entry ids in [int array]s, all in heap order, and per
    entry id its heap slot, a generation and its value.  Ids recycle,
    so once the arrays have grown to the peak population, {!push},
    {!min_time} and {!pop_min} allocate nothing (beyond the boxed float
    a caller passes or receives across a module boundary).  A handle
    is the entry's id and generation packed into one int: popping or
    cancelling an entry bumps its id's generation, so a stale handle
    never reaches the entry that reuses its id.

    The module keeps the name it had as a calendar queue (a timing
    wheel) because the end-to-end benchmark's per-layer probes call
    it by that name. *)

type 'a t

type 'a handle
(** One scheduled entry; valid for the queue that returned it. *)

val create : ?capacity_hint:int -> unit -> 'a t
(** An empty queue whose columns start sized for [capacity_hint]
    pending entries (default 0), so a caller that knows its peak
    population skips the doublings up to it. *)

val length : 'a t -> int
(** Live (not cancelled, not yet popped) entries. *)

val push : 'a t -> time:float -> 'a -> 'a handle
(** Schedule a value.  Raises [Invalid_argument] unless [time] is
    finite and [>= 0].  Entries pushed at equal times pop in push
    order. *)

val min_time : 'a t -> float
(** Time of the earliest live entry.  Raises [Invalid_argument] on an
    empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the earliest live entry and return its value; read its time
    with {!min_time} first.  Raises [Invalid_argument] on an empty
    queue.  The event loops drive the heap through {!length},
    {!min_time} and [pop_min], which build no option or pair. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest live entry. *)

val cancel : 'a t -> 'a handle -> unit
(** Remove the entry if it is still pending; no-op after it has popped
    or been cancelled already (safe to call twice), even once its id
    has been reused by a later push. *)

val live : 'a t -> 'a handle -> bool
(** Whether the entry is still pending (not popped, not cancelled). *)
