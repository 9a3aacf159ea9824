(* Deterministic views of hash tables.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in an order that depends
   on the insertion/removal history, so any float accumulation or list
   built that way is only reproducible by accident.  Result paths must
   go through these sorted-key views instead (lint rule D002,
   DESIGN.md §14); the suppressed fold below is the one sanctioned
   unordered traversal — it only collects keys, and the sort restores a
   canonical order before anything observable happens. *)

let sorted_keys ?(compare = Stdlib.compare) tbl =
  (* lint: allow D002, T001 — key collection only; sort_uniq canonicalizes *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq compare keys

let sorted_bindings ?compare tbl =
  (* For tables maintained with [replace] (one binding per key); with
     [add]-stacked bindings only the most recent one is returned. *)
  List.map (fun k -> (k, Hashtbl.find tbl k)) (sorted_keys ?compare tbl)
