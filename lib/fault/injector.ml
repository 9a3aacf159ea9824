module Rng = Rcbr_util.Rng

type fate = Deliver | Drop | Duplicate | Delay of int

type totals = {
  sent : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
}

type t = {
  plan : Plan.t;
  hop_rng : Rng.t array;
  source_rng : Rng.t;
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;
}

let create plan =
  Plan.validate plan;
  let root = Rng.create plan.Plan.seed in
  (* One independent stream per hop so the decision sequence on a hop
     does not depend on traffic crossing the others. *)
  let hop_rng = Array.map (fun _ -> Rng.split root) plan.Plan.links in
  {
    plan;
    hop_rng;
    source_rng = Rng.split root;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    reordered = 0;
  }

let fate t ~hop =
  t.sent <- t.sent + 1;
  let l = t.plan.Plan.links.(hop) in
  if Plan.link_is_reliable l then Deliver
  else
    let rng = t.hop_rng.(hop) in
    let u = Rng.float rng in
    if u < l.Plan.drop then begin
      t.dropped <- t.dropped + 1;
      Drop
    end
    else if u < l.Plan.drop +. l.Plan.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      Duplicate
    end
    else if u < l.Plan.drop +. l.Plan.duplicate +. l.Plan.reorder then begin
      t.reordered <- t.reordered + 1;
      Delay 1
    end
    else if u < l.Plan.drop +. l.Plan.duplicate +. l.Plan.reorder +. l.Plan.delay
    then begin
      t.delayed <- t.delayed + 1;
      Delay (1 + Rng.int rng l.Plan.max_extra_slots)
    end
    else if
      u
      < l.Plan.drop +. l.Plan.duplicate +. l.Plan.reorder +. l.Plan.delay
        +. l.Plan.corrupt
    then begin
      (* At the cell level a corrupted cell fails its CRC on arrival and
         is discarded — indistinguishable from a drop for the protocol
         machinery above.  The byte-level mangler delivers the damage
         instead (Rcbr_wire.Mangle). *)
      t.dropped <- t.dropped + 1;
      Drop
    end
    else Deliver

let jitter t n =
  assert (n >= 0);
  if n = 0 then 0 else Rng.int t.source_rng (n + 1)

let totals t =
  {
    sent = t.sent;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    reordered = t.reordered;
  }

let pp_totals ppf (s : totals) =
  Format.fprintf ppf
    "cells sent %d, dropped %d, duplicated %d, delayed %d, reordered %d" s.sent
    s.dropped s.duplicated s.delayed s.reordered
