(** The event queue of every simulator: a binary min-heap keyed by a
    float time, with cancellable entries.

    Ties fire in push order (a global sequence number), so the pop
    order is the (time, seq) order of the pushed entries — checked
    against a linear-scan model in [test/test_queue.ml].  Each entry
    knows its slot in the heap, so {!cancel} removes it in O(log n)
    and leaves nothing behind; push and pop are O(log n) too.  Times
    must be finite and non-negative.

    The module keeps the name it had as a calendar queue (a timing
    wheel) because the end-to-end benchmark's per-layer probes call
    it by that name. *)

type 'a t

type 'a handle
(** One scheduled entry; valid for the queue that returned it. *)

val create : unit -> 'a t
val length : 'a t -> int
(** Live (not cancelled, not yet popped) entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> 'a handle
(** Schedule a value.  Raises [Invalid_argument] unless [time] is
    finite and [>= 0].  Entries pushed at equal times pop in push
    order. *)

val peek : 'a t -> (float * 'a) option
(** Earliest live entry without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest live entry. *)

val cancel : 'a t -> 'a handle -> unit
(** Remove the entry if it is still pending; no-op after it has popped
    or been cancelled already (safe to call twice). *)

val live : 'a handle -> bool
(** Whether the entry is still pending (not popped, not cancelled). *)
