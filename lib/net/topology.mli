(** Static network shape for the call-level simulators.

    A topology is a set of nodes, an array of capacitated directed
    links, and an array of routes, each route an array of link ids
    walked in order.  It carries no simulation state — {!Link} holds the
    per-link accounting and {!Session} the per-call state machine — so
    one topology value can be shared by any number of runs.

    The historical experiments are special cases: {!single_link} is the
    Section VI MBAC link, {!parallel_routes} is the Section III-C
    multi-hop network ([routes] disjoint linear paths of [hops] links
    between one source/sink pair, link id [r * hops + h]).  Arbitrary
    graphs — meshes with routes of different lengths sharing links —
    come from {!make} or a JSON file ({!load}). *)

type link = {
  src : int;
  dst : int;
  capacity : float;  (** b/s; must be positive *)
}

type t = private {
  n_nodes : int;
  links : link array;
  routes : int array array;  (** each route: link ids, walked in order *)
}

val make : n_nodes:int -> links:link array -> routes:int array array -> t
(** Validates: positive capacities, link endpoints in [0, n_nodes),
    at least one route, route link ids in range, and every route a
    connected chain (each link starts where the previous one ended).
    Raises [Invalid_argument] otherwise. *)

val single_link : capacity:float -> t
(** Two nodes, one link, one one-hop route. *)

val linear : hops:int -> capacity:float -> t
(** A chain of [hops] links with one route over the full path. *)

val parallel_routes : routes:int -> hops:int -> capacity:float -> t
(** [routes] disjoint linear paths of [hops] links each, sharing the
    source and sink nodes; route [r] is links
    [r * hops .. r * hops + hops - 1] in hop order — the layout the
    Section III-C experiment historically hard-coded. *)

val grid : rows:int -> cols:int -> capacity:float -> t
(** A [rows x cols] city-style mesh: east links [(r,c) -> (r,c+1)]
    (ids [r*(cols-1)+c]) and south links [(r,c) -> (r+1,c)] (ids
    [rows*(cols-1) + r*cols + c]).  Routes: every full west-to-east
    row, every full north-to-south column, and the two corner-to-corner
    staircases (east-first and south-first), so cross-cutting paths
    share links with the row/column sets — [rows + cols + 2] routes
    total.  Requires [rows, cols >= 2]. *)

val n_links : t -> int
val n_routes : t -> int

val route_lengths : t -> int array
(** Hops per route, in route order. *)

val of_json : Rcbr_util.Json.t -> (t, string) result
(** Build from [{ "nodes": n, "links": [{"src","dst","capacity"}...],
    "routes": [[link ids]...] }].  Total: every malformed input —
    missing or mistyped fields, nonpositive capacities, out-of-range
    link ids or endpoints, dangling route hops, empty route lists —
    maps to a descriptive [Error], never an exception. *)

val load : string -> (t, string) result
(** {!of_json} on a JSON file — the [--topology mesh:FILE] loader.
    Unreadable files and non-JSON bytes also land in [Error], with the
    path prefixed to the message. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: nodes, links, routes with their lengths. *)

(** {1 The [--topology] flag}

    One grammar for every CLI that takes a network shape:
    [single | linear:HOPS | mesh:FILE]. *)

type spec =
  | Single  (** {!single_link} *)
  | Linear of int  (** {!linear} with this many hops, at least 1 *)
  | Mesh of string  (** a JSON file for {!load} *)

val spec_of_string : string -> (spec, string) result
(** Parse a [--topology] value; the [Error] is the message a CLI shows
    for a malformed one. *)

val pp_spec : Format.formatter -> spec -> unit
(** Inverse of {!spec_of_string}. *)

val of_spec : capacity:float -> spec -> (t, string) result
(** The shape a spec names, every built-in link at [capacity] b/s;
    [Mesh] loads its file ({!load}, whose errors it returns). *)
