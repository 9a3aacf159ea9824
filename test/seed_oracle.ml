(* The seed's measurement-based admission decision, rebuilt from scratch
   on every call: the reference Rcbr_admission.Controller's incremental
   kernel is checked against.

   Each call keeps its own record — current rate, segment start and the
   finalized seconds it spent at each rate — in a map keyed by call id,
   so every iteration is in sorted-id order.  A decision rebuilds the
   [(rate, weight)] list from those records (one unit per call at its
   current rate for [memoryless], the call's whole time-weighted
   history for [memory]), falls back to the instantaneous rates when
   every history weight is zero, normalizes it into a marginal and asks
   the cold [Chernoff.max_calls].  Nothing here reads Controller
   state. *)

module Chernoff = Rcbr_effbw.Chernoff
module Calls = Map.Make (Int)

type call = {
  rate : float;
  since : float;
  history : (float * float) list;  (* (rate, seconds), first-seen order *)
}

type t = {
  memory : bool;
  capacity : float;
  target : float;
  mutable calls : call Calls.t;
  mutable decisions : int;
  mutable admits : int;
  mutable decision_hash : int;
}

let make ~memory ~capacity ~target =
  {
    memory;
    capacity;
    target;
    calls = Calls.empty;
    decisions = 0;
    admits = 0;
    decision_hash = 0;
  }

let memory = make ~memory:true
let memoryless = make ~memory:false

let on_admit t ~now ~call ~rate =
  t.calls <- Calls.add call { rate; since = now; history = [] } t.calls

let rec add_seconds rate secs = function
  | [] -> [ (rate, secs) ]
  | (r, s) :: rest when Float.equal r rate -> (r, s +. secs) :: rest
  | seg :: rest -> seg :: add_seconds rate secs rest

let on_renegotiate t ~now ~call ~rate =
  match Calls.find_opt call t.calls with
  | None -> ()
  | Some c ->
      let elapsed = now -. c.since in
      let history =
        if elapsed > 0. then add_seconds c.rate elapsed c.history else c.history
      in
      t.calls <- Calls.add call { rate; since = now; history } t.calls

(* A departing call takes its history with it. *)
let on_depart t ~now:_ ~call = t.calls <- Calls.remove call t.calls

let instantaneous_weights t =
  Calls.fold (fun _ c acc -> (c.rate, 1.) :: acc) t.calls []

let history_weights t ~now =
  Calls.fold
    (fun _ c acc ->
      let acc = List.rev_append c.history acc in
      let ongoing = now -. c.since in
      if ongoing > 0. then (c.rate, ongoing) :: acc else acc)
    t.calls []

let marginal weights =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. weights in
  List.map (fun (r, w) -> (w /. total, r)) weights
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)
  |> Array.of_list

let admit t ~now =
  let weights =
    if not t.memory then instantaneous_weights t
    else
      let weights = history_weights t ~now in
      if List.for_all (fun (_, w) -> w <= 0.) weights then
        instantaneous_weights t
      else weights
  in
  let verdict =
    match weights with
    | [] -> true (* no information: the certainty-equivalent scheme admits *)
    | _ ->
        Calls.cardinal t.calls + 1
        <= Chernoff.max_calls (marginal weights) ~capacity:t.capacity
             ~target:t.target
  in
  t.decisions <- t.decisions + 1;
  if verdict then t.admits <- t.admits + 1;
  t.decision_hash <-
    ((t.decision_hash * 1_000_003) + (if verdict then 1 else 2)) land max_int;
  verdict
