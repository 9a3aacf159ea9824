(* Struct-of-arrays call store: the one per-call representation every
   simulator and the switch daemon run on.

   Every per-call field lives in a packed parallel array indexed by an
   integer handle, a call's route is the caller's own array, kept by
   reference, and freed handles recycle through a stack — so steady
   state allocates nothing, even at 10^6 concurrent calls.

   The route queries ([fits]/[blocked]/[settle]/[audit]) fix the float
   expressions and their evaluation order, and [settle] is the only
   writer of [applied]: every engine moves link demand through it. *)

module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts

type handle = int

type t = {
  mutable applied : float array;
  mutable demanded : float array;  (* source-wanted rate (service models) *)
  mutable cursor : int array;  (* schedule cursor (piece index) *)
  mutable gen : int array;
  mutable id : int array;
  mutable route : int array array;  (* the caller's array, not a copy *)
  mutable flags : Bytes.t;  (* bit 0: live, bit 1: transit *)
  mutable free : int array;  (* free-handle stack *)
  mutable free_len : int;
  mutable hwm : int;  (* handles ever touched: live + free *)
  mutable live : int;
  (* Per-call MTS ladder state (DESIGN.md §15), allocated on the first
     [Mts_profile] use: Renegotiate and Downgrade runs never grow these
     beyond the empty arrays.  An empty ladder means "not attached". *)
  mutable mts_buckets : Rcbr_traffic.Token_bucket.t array array;
  mutable mts_at : float array;  (* time of the last policing decision *)
  upq : (handle * int) Queue.t;
      (* downgraded calls awaiting spare capacity, oldest first, with
         the call id that tells a recycled handle's stale entry apart *)
}

let create ?(capacity_hint = 16) () =
  let cap = max 16 capacity_hint in
  {
    applied = Array.make cap 0.;
    demanded = Array.make cap 0.;
    cursor = Array.make cap 0;
    gen = Array.make cap 0;
    id = Array.make cap 0;
    route = Array.make cap [||];
    flags = Bytes.make cap '\000';
    free = Array.make cap 0;
    free_len = 0;
    hwm = 0;
    live = 0;
    mts_buckets = [||];
    mts_at = [||];
    upq = Queue.create ();
  }

let live_count t = t.live
let is_live t h = Char.code (Bytes.get t.flags h) land 1 <> 0

let grow_handles t =
  let cap = Array.length t.applied in
  let ncap = 2 * cap in
  let gf a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.applied <- gf t.applied 0.;
  t.demanded <- gf t.demanded 0.;
  t.cursor <- gf t.cursor 0;
  t.gen <- gf t.gen 0;
  t.id <- gf t.id 0;
  t.route <- gf t.route [||];
  t.free <- gf t.free 0;
  let nflags = Bytes.make ncap '\000' in
  Bytes.blit t.flags 0 nflags 0 cap;
  t.flags <- nflags

let acquire t ~id ~route ~transit =
  assert (Array.length route > 0);
  let h =
    if t.free_len > 0 then begin
      t.free_len <- t.free_len - 1;
      t.free.(t.free_len)
    end
    else begin
      if t.hwm = Array.length t.applied then grow_handles t;
      let h = t.hwm in
      t.hwm <- t.hwm + 1;
      h
    end
  in
  t.route.(h) <- route;
  t.applied.(h) <- 0.;
  t.demanded.(h) <- 0.;
  t.cursor.(h) <- 0;
  t.gen.(h) <- 0;
  t.id.(h) <- id;
  if h < Array.length t.mts_buckets then t.mts_buckets.(h) <- [||];
  Bytes.set t.flags h (Char.chr (1 lor if transit then 2 else 0));
  t.live <- t.live + 1;
  h

let release t h =
  assert (is_live t h);
  Bytes.set t.flags h '\000';
  t.free.(t.free_len) <- h;
  t.free_len <- t.free_len + 1;
  t.live <- t.live - 1

let id t h = t.id.(h)
let applied t h = t.applied.(h)
let demanded t h = t.demanded.(h)
let set_demanded t h r = t.demanded.(h) <- r
let cursor t h = t.cursor.(h)
let set_cursor t h c = t.cursor.(h) <- c
let gen t h = t.gen.(h)
let bump_gen t h = t.gen.(h) <- t.gen.(h) + 1
let transit t h = Char.code (Bytes.get t.flags h) land 2 <> 0

let route_iter t h f = Array.iter f t.route.(h)

let fits ~(links : Link.t array) t h ~rate ~now =
  let delta = rate -. t.applied.(h) in
  let route = t.route.(h) in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < Array.length route do
    let l = links.(route.(!i)) in
    ok :=
      (not (Link.down l ~now))
      && l.Link.acct.demand +. delta <= l.Link.capacity +. 1e-9;
    incr i
  done;
  !ok

let blocked ~(links : Link.t array) t h ~now =
  let route = t.route.(h) in
  let hit = ref false in
  let i = ref 0 in
  while (not !hit) && !i < Array.length route do
    hit := Link.down links.(route.(!i)) ~now;
    incr i
  done;
  !hit

(* Not [route_iter]: its closure would allocate, and box [delta], on
   every settle.  [Link.acct] is an all-float record, so the demand
   update writes in place: no box, no write barrier. *)
let settle ~(links : Link.t array) t h ~rate =
  let delta = rate -. t.applied.(h) in
  let route = t.route.(h) in
  for i = 0 to Array.length route - 1 do
    let a = links.(route.(i)).Link.acct in
    a.Link.demand <- a.Link.demand +. delta
  done;
  t.applied.(h) <- rate

(* A loop over the route too, like [settle]: no closure per call. *)
let advance ~(links : Link.t array) t h ~now =
  let route = t.route.(h) in
  for i = 0 to Array.length route - 1 do
    Link.advance links.(route.(i)) ~now
  done

(* --- service models (DESIGN.md §15) ---------------------------------- *)

let attach_mts model t h ~now =
  match (model : Service_model.t) with
  | Service_model.Renegotiate | Service_model.Downgrade _ -> ()
  | Service_model.Mts_profile p ->
      let n = Array.length t.mts_buckets in
      if h >= n then begin
        let nn = max 16 (max (2 * n) (h + 1)) in
        let nb = Array.make nn [||] in
        Array.blit t.mts_buckets 0 nb 0 n;
        t.mts_buckets <- nb;
        let na = Array.make nn 0. in
        Array.blit t.mts_at 0 na 0 n;
        t.mts_at <- na
      end;
      t.mts_buckets.(h) <- Mts.attach p;
      t.mts_at.(h) <- now

let queue_upgrade t h = Queue.push (h, t.id.(h)) t.upq

(* Renegotiate grants without probing the links; the other models
   probe [fits] / police the MTS ladder.  Every model hands the
   granted rate back for the driver to count and settle. *)
let decide model ~(links : Link.t array) t h ~now ~demanded =
  t.demanded.(h) <- demanded;
  match (model : Service_model.t) with
  | Service_model.Renegotiate -> Service_model.Grant
  | Service_model.Downgrade { tiers } ->
      let d =
        Service_model.decide_tiers ~tiers ~demanded ~fits:(fun r ->
            fits ~links t h ~rate:r ~now)
      in
      if Service_model.downgraded d then queue_upgrade t h;
      d
  | Service_model.Mts_profile p ->
      assert (
        h < Array.length t.mts_buckets && Array.length t.mts_buckets.(h) > 0);
      let elapsed = Float.max 0. (now -. t.mts_at.(h)) in
      t.mts_at.(h) <- now;
      let granted =
        Mts.police p t.mts_buckets.(h) ~elapsed ~applied:t.applied.(h) ~demanded
      in
      if granted >= demanded then Service_model.Grant
      else Service_model.Police_to { granted }

(* The queue head is the oldest downgrade still waiting.  An entry whose
   handle died, was recycled (another call id) or was restored since is
   dropped; a head that fits no higher rate blocks the rest, so no call
   overtakes one downgraded before it; a head restored only part way
   keeps its place for the next departure.  Top-level and recursive, so
   a drain builds no closure of its own. *)
let rec drain_upgrades model ~links t ~now f =
  match ((model : Service_model.t), Queue.peek_opt t.upq) with
  | (Service_model.Renegotiate | Service_model.Mts_profile _), _ | _, None -> ()
  | Service_model.Downgrade { tiers }, Some (h, id) -> (
      if
        (not (is_live t h)) || t.id.(h) <> id || t.demanded.(h) <= t.applied.(h)
      then begin
        ignore (Queue.pop t.upq);
        drain_upgrades model ~links t ~now f
      end
      else
        match
          Service_model.upgrade ~tiers ~demanded:t.demanded.(h)
            ~applied:t.applied.(h) ~fits:(fun r -> fits ~links t h ~rate:r ~now)
        with
        | None -> ()
        | Some r ->
            f h ~now ~rate:r;
            if t.demanded.(h) <= r then begin
              ignore (Queue.pop t.upq);
              drain_upgrades model ~links t ~now f
            end)

(* Every link's demand must equal the sum of the [applied] rates of the
   calls crossing it — conservation of (desired) bandwidth under any
   interleaving of changes, retransmissions and give-ups.  One
   pseudo-VCI per link holds the recomputed expectation so the
   [Invariant] checker flags aggregate/sum mismatches for us.  The sums
   run in handle order, then route order, as loops like [settle]'s:
   no closure per live call. *)
let audit ~(links : Link.t array) t =
  let expect = Array.make (Array.length links) 0. in
  for h = 0 to t.hwm - 1 do
    if is_live t h then begin
      let rate = t.applied.(h) and route = t.route.(h) in
      for i = 0 to Array.length route - 1 do
        let lid = route.(i) in
        expect.(lid) <- expect.(lid) +. rate
      done
    end
  done;
  let views =
    Array.init (Array.length links) (fun i ->
        {
          Rcbr_fault.Invariant.index = i;
          capacity = links.(i).Link.capacity;
          reserved = links.(i).Link.acct.demand;
          vci_rates = [ (0, expect.(i)) ];
        })
  in
  List.length (Rcbr_fault.Invariant.check ~check_capacity:false views)
