(** Deterministic (sorted-key) views of hash tables.

    Lint rule D002 (DESIGN.md §14) bans raw [Hashtbl.iter]/[Hashtbl.fold]
    in result paths because bucket order depends on the table's history.
    These helpers are the sanctioned replacement: they visit keys in
    [compare] order (default: [Stdlib.compare]), so every traversal is a
    pure function of the table's contents. Pass an explicit comparator —
    e.g. [Float.compare] — for float keys. *)

val sorted_keys : ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list
(** Distinct keys in ascending [compare] order. *)

val sorted_bindings :
  ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** [(key, value)] pairs in ascending key order. For keys with stacked
    [add] bindings, only the most recent binding is returned — the same
    one [Hashtbl.find] would. A qcheck property in [test/test_util.ml]
    pins these semantics against a reference model under forced bucket
    collisions and mixed [add]/[replace]/[remove] histories. *)
