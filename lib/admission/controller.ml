module Chernoff = Rcbr_effbw.Chernoff
module Service_model = Rcbr_policy.Service_model

(* The admission fast path (DESIGN.md §7).

   The measurement-based schemes describe "a typical call" by a weighted
   bandwidth-level distribution; the paper's observation that the
   aggregate is the running sum of per-call histograms makes that state
   incrementally maintainable.  Rates are interned into a dense level
   table (matched with [Float.compare], the seed's hashtable equality,
   so -0. and 0. share a level, as do all NaNs), and the controller
   maintains, per level index

     hist       — finalized history seconds of all calls in the system
     cur_count  — number of calls currently reserving this level
     since_sum  — sum of those calls' segment start times

   so that the time-weighted aggregate at time [now] is, per level,

     hist + cur_count * now - since_sum

   i.e. every arrival / renegotiation / departure costs O(1) histogram
   updates and a decision materializes the marginal in O(levels) with no
   allocation, instead of rebuilding a per-call weight list in
   O(calls x levels).  Each decision is then Section VI's one Chernoff
   probe at n + 1 calls ([Chernoff.Solver.admits]) on a solver owned by
   the controller.

   The decision cache is keyed on the weight vector a decision loads:
   per key the controller keeps bounds on the admission limit.  A call
   admitted at [now] has been observed for zero seconds and leaves the
   memory scheme's weights unchanged, so a whole arrival burst at one
   tick is decided by one probe and one warm [max_calls] search.

   The three aggregates are plain float arrays grown together with the
   level table, and a call's own state sits in per-slot columns indexed
   by the caller's dense slot (its [Store] handle): no update boxes a
   float, hashes a key or allocates a record.  A slot's history array
   is allocated at its first finalized segment, so a call that departs
   before renegotiating never gets one, and it is zeroed, not dropped,
   at departure, so the next call on a recycled slot reuses it.

   The decision sequence is property-tested against a from-scratch
   oracle that rebuilds the [(rate, weight)] list from per-call records
   on every decision and runs the cold [Chernoff.max_calls]
   (test/seed_oracle.ml).  The aggregate differs from a rebuild only by
   float-summation order, which the deviation probe below bounds. *)

type kind =
  | Perfect of { max_calls : int }
  | Memoryless of { capacity : float; target : float }
  | Memory of { capacity : float; target : float }
  | Always

type stats = {
  decisions : int;
  admits : int;
  decision_hash : int;
  batch_hits : int;
  solver : Chernoff.Solver.stats;
}

type t = {
  name : string;
  kind : kind;
  (* Per-slot call state, one entry per slot below the columns' length;
     grown by doubling to the highest slot admitted. *)
  mutable level : int array;
  mutable since : float array;  (* start of the call's ongoing segment *)
  mutable segments : int array;  (* finalized history segments (weight > 0) *)
  mutable history : float array array;
      (* finalized seconds per level, this call; [||] until the slot's
         first finalized segment, zeroed at departure *)
  mutable live : Bytes.t;  (* '\001' while a call holds the slot *)
  mutable n_live : int;
  (* Level table: rate values interned in first-seen order. *)
  mutable values : float array;
  mutable n_levels : int;
  (* Incremental aggregates, level-indexed, as long as [values]. *)
  mutable hist : float array;
  mutable cur_count : float array;
  mutable since_sum : float array;
  mutable hist_segments : int;  (* total finalized segments in [hist] *)
  (* Lower bound on the minimum [since] over active calls (infinity
     when none was ever admitted; never raised by departures, so it can
     only be stale *downward* — see [all_fresh]). *)
  mutable since_floor : float;
  solver : Chernoff.Solver.t;
  (* Decision cache: [key] is the per-level weight vector [solver] was
     last loaded from, and [fit_lo] (0 = none) and [fit_hi] ([max_int]
     = none) bound that vector's admission limit: n calls fit for
     every n <= [fit_lo] and for no n >= [fit_hi]. *)
  mutable key : float array;
  mutable fit_lo : int;
  mutable fit_hi : int;
  (* Instrumentation. *)
  mutable decisions : int;
  mutable admits : int;
  mutable decision_hash : int;
  mutable batch_hits : int;
}

let name t = t.name
let n_in_system t = t.n_live

let stats t =
  {
    decisions = t.decisions;
    admits = t.admits;
    decision_hash = t.decision_hash;
    batch_hits = t.batch_hits;
    solver = Chernoff.Solver.stats t.solver;
  }

let grown a n =
  let b = Array.make n 0. in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A scan, not a hash: the level table stays short (a schedule's
   distinct rates), and [Float.compare] is the equality the seed's
   polymorphic table keyed on. *)
let level_of t rate =
  let n = t.n_levels in
  let l = ref 0 in
  while !l < n && Float.compare t.values.(!l) rate <> 0 do
    incr l
  done;
  if !l < n then !l
  else begin
    if n >= Array.length t.values then begin
      let cap = 2 * Array.length t.values in
      t.values <- grown t.values cap;
      t.hist <- grown t.hist cap;
      t.cur_count <- grown t.cur_count cap;
      t.since_sum <- grown t.since_sum cap
    end;
    t.values.(n) <- rate;
    t.n_levels <- n + 1;
    n
  end

(* --- state maintenance ---------------------------------------------- *)

let is_live t s = s < Bytes.length t.live && Bytes.get t.live s <> '\000'

let grow_slots t s =
  let cap = Array.length t.level in
  let ncap = max (s + 1) (max 16 (2 * cap)) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.level <- extend t.level 0;
  t.segments <- extend t.segments 0;
  t.since <- extend t.since 0.;
  t.history <- extend t.history [||];
  let live = Bytes.make ncap '\000' in
  Bytes.blit t.live 0 live 0 cap;
  t.live <- live

(* Close slot [s]'s ongoing segment at [now] into its history. *)
let accumulate t s ~now =
  let elapsed = now -. t.since.(s) in
  if elapsed > 0. then begin
    let l = t.level.(s) in
    if l >= Array.length t.history.(s) then
      t.history.(s) <- grown t.history.(s) (max (l + 1) t.n_levels);
    let h = t.history.(s) in
    h.(l) <- h.(l) +. elapsed;
    t.hist.(l) <- t.hist.(l) +. elapsed;
    t.segments.(s) <- t.segments.(s) + 1;
    t.hist_segments <- t.hist_segments + 1
  end;
  t.since.(s) <- now

(* Open a segment at [level] from [now] / close the one slot [s] holds. *)
let enter t level ~now =
  t.cur_count.(level) <- t.cur_count.(level) +. 1.;
  t.since_sum.(level) <- t.since_sum.(level) +. now

let leave t s =
  let l = t.level.(s) in
  t.cur_count.(l) <- t.cur_count.(l) -. 1.;
  t.since_sum.(l) <- t.since_sum.(l) -. t.since.(s)

let on_admit t ~now ~call ~rate =
  if call >= Array.length t.level then grow_slots t call;
  assert (not (is_live t call));
  let level = level_of t rate in
  t.level.(call) <- level;
  t.since.(call) <- now;
  t.segments.(call) <- 0;
  Bytes.set t.live call '\001';
  t.n_live <- t.n_live + 1;
  if now < t.since_floor then t.since_floor <- now;
  enter t level ~now

let on_renegotiate t ~now ~call ~rate =
  if is_live t call then begin
    (* Close the ongoing segment at the old level... *)
    leave t call;
    accumulate t call ~now;
    (* ...and open one at the new. *)
    let level = level_of t rate in
    t.level.(call) <- level;
    enter t level ~now
  end

let on_depart t ~now ~call =
  ignore now;
  if is_live t call then begin
    Bytes.set t.live call '\000';
    t.n_live <- t.n_live - 1;
    (* The departing call takes its history with it, exactly as the
       seed's per-call table did: the ongoing tail is dropped, not
       finalized. *)
    leave t call;
    let h = t.history.(call) in
    for l = 0 to Array.length h - 1 do
      if h.(l) > 0. then begin
        t.hist.(l) <- t.hist.(l) -. h.(l);
        h.(l) <- 0.
      end
    done;
    t.hist_segments <- t.hist_segments - t.segments.(call)
  end

(* --- decision path ---------------------------------------------------- *)

(* The seed fell back to instantaneous rates when every history weight
   was <= 0, which — since finalized segments always carry positive
   seconds — happens exactly when no segment was ever finalized and no
   call has been in the system for positive time.  Testing it this way
   keeps the branch exact (no epsilon against float cancellation in the
   aggregate); the O(calls) scan only runs while the controller has no
   finalized history at all. *)
let all_fresh t ~now =
  t.hist_segments = 0
  && ((* [since_floor] is a lower bound on every active [since]
         (departures never raise it), so [now <= since_floor] proves
         every call fresh in O(1) — the common case during a
         same-tick ramp, where the scan below would be O(calls) per
         decision.  When the bound is inconclusive the exact scan
         decides, as the seed did. *)
      now <= t.since_floor
     ||
     let fresh = ref true and s = ref 0 in
     while !fresh && !s < Bytes.length t.live do
       if is_live t !s && now -. t.since.(!s) > 0. then fresh := false;
       incr s
     done;
     !fresh)

(* Load the decision's weights: per level, the calls' instantaneous
   counts or the memory scheme's time-weighted aggregate.  Equal to
   the stored key bit for bit, they are the marginal the solver holds
   ([Float.equal] equates 0. and -0., which [Chernoff.Solver.push] both
   skips), and capacity and target are fixed per controller, so the key
   determines [fits n] for every n.  At the first level that differs,
   the solver is reset and reloaded from the key's equal prefix, and
   from there each weight is stored and pushed in the same pass; the
   old key's bounds are dropped. *)
let load t ~now =
  let instantaneous =
    match t.kind with Memory _ -> all_fresh t ~now | _ -> true
  in
  let n = t.n_levels in
  let hit = ref (Array.length t.key = n) in
  if not !hit then begin
    t.key <- Array.make n 0.;
    Chernoff.Solver.reset t.solver
  end;
  for l = 0 to n - 1 do
    let count = t.cur_count.(l) in
    let w =
      if instantaneous then count
      else t.hist.(l) +. ((count *. now) -. t.since_sum.(l))
    in
    if !hit && not (Float.equal w t.key.(l)) then begin
      hit := false;
      Chernoff.Solver.reset t.solver;
      for k = 0 to l - 1 do
        Chernoff.Solver.push t.solver ~level:t.values.(k) ~weight:t.key.(k)
      done
    end;
    if not !hit then begin
      t.key.(l) <- w;
      Chernoff.Solver.push t.solver ~level:t.values.(l) ~weight:w
    end
  done;
  if not !hit then begin
    if Chernoff.Solver.n_levels t.solver > 0 then
      Chernoff.Solver.commit_weighted t.solver;
    t.fit_lo <- 0;
    t.fit_hi <- max_int
  end

(* Section VI's test, admit iff [n + 1] calls fit, answered from the
   key's bounds whenever they cover it (a batch hit).  That is exact:
   [fits] is monotone in n, and [Solver.admits ~calls] equals
   [calls + 1 <= Solver.max_calls].  A key's first decision makes one
   probe and keeps its answer as a bound; its first decision the bounds
   do not cover runs one warm search, whose limit settles every later
   decision on the key. *)
let chernoff_admit t ~now ~capacity ~target =
  load t ~now;
  let wanted = n_in_system t + 1 in
  if Chernoff.Solver.n_levels t.solver = 0 then true
  else if wanted <= t.fit_lo || wanted >= t.fit_hi then begin
    t.batch_hits <- t.batch_hits + 1;
    wanted <= t.fit_lo
  end
  else if t.fit_lo = 0 && t.fit_hi = max_int then begin
    let fits =
      Chernoff.Solver.admits t.solver ~capacity ~target ~calls:(wanted - 1)
    in
    if fits then t.fit_lo <- wanted else t.fit_hi <- wanted;
    fits
  end
  else begin
    let limit = Chernoff.Solver.max_calls t.solver ~capacity ~target in
    t.fit_lo <- limit;
    t.fit_hi <- (if limit = max_int then max_int else limit + 1);
    wanted <= limit
  end

(* --- decisions ------------------------------------------------------ *)

let record t verdict =
  t.decisions <- t.decisions + 1;
  if verdict then t.admits <- t.admits + 1;
  (* Order-sensitive running hash of the admit/deny sequence, for
     cheap cross-run and cross-[-j] identity checks. *)
  t.decision_hash <-
    ((t.decision_hash * 1_000_003) + (if verdict then 1 else 2)) land max_int;
  verdict

let admit t ~now =
  match t.kind with
  | Always -> record t true
  | Perfect { max_calls } -> record t (n_in_system t + 1 <= max_calls)
  | Memoryless { capacity; target } | Memory { capacity; target } ->
      record t (chernoff_admit t ~now ~capacity ~target)

(* --- service-model placement (DESIGN.md §15) ------------------------ *)

(* Where an admitted call lands under the service model.  The engine
   ran the Chernoff gate first ([admit], one [record]) and drew the
   call only when it admitted, so under every model but [Downgrade]
   this is a full grant and [fits] is never probed.  Under [Downgrade]
   a call that does not [fits] at its demanded rate walks the ladder;
   one that fits at no tier gets [Settle_floor], which blocks it (new
   calls hold no floor right — only established calls settle, see
   [Store.decide]), and the capacity rejection is recorded as an extra
   deny so the hash covers it.  [Mts_profile] polices established
   traffic only. *)
let place t (model : Service_model.t) ~demanded ~fits =
  match model with
  | Service_model.Renegotiate | Service_model.Mts_profile _ -> Service_model.Grant
  | Service_model.Downgrade { tiers } ->
      let decision = Service_model.decide_tiers ~tiers ~demanded ~fits in
      (match decision with
      | Service_model.Settle_floor _ -> ignore (record t false)
      | _ -> ());
      decision

(* --- debug: incremental aggregate vs from-scratch rebuild ----------- *)

(* lint: allow R001 — probe: tests check the aggregates against a rebuild *)
let debug_aggregate_deviation t ~now =
  let rebuilt = Array.make (max 1 t.n_levels) 0. in
  (* Rebuild in slot order, so the aggregate, a float sum, is a pure
     function of the controller state. *)
  for s = 0 to Bytes.length t.live - 1 do
    if is_live t s then begin
      Array.iteri
        (fun l w -> if w > 0. then rebuilt.(l) <- rebuilt.(l) +. w)
        t.history.(s);
      let ongoing = now -. t.since.(s) in
      if ongoing > 0. then
        rebuilt.(t.level.(s)) <- rebuilt.(t.level.(s)) +. ongoing
    end
  done;
  let dev = ref 0. in
  for l = 0 to t.n_levels - 1 do
    let incremental =
      t.hist.(l) +. (t.cur_count.(l) *. now) -. t.since_sum.(l)
    in
    let scale = Float.max 1. (Float.max (Float.abs rebuilt.(l)) now) in
    dev := Float.max !dev (Float.abs (incremental -. rebuilt.(l)) /. scale)
  done;
  !dev

(* --- constructors --------------------------------------------------- *)

let make ~name ~kind () =
  {
    name;
    kind;
    level = [||];
    since = [||];
    segments = [||];
    history = [||];
    live = Bytes.empty;
    n_live = 0;
    values = Array.make 16 0.;
    n_levels = 0;
    hist = Array.make 16 0.;
    cur_count = Array.make 16 0.;
    since_sum = Array.make 16 0.;
    hist_segments = 0;
    since_floor = infinity;
    solver = Chernoff.Solver.create ();
    key = [||];
    fit_lo = 0;
    fit_hi = max_int;
    decisions = 0;
    admits = 0;
    decision_hash = 0;
    batch_hits = 0;
  }

let perfect ~descriptor ~capacity ~target =
  let max_calls = Descriptor.max_admissible descriptor ~capacity ~target in
  make ~name:"perfect" ~kind:(Perfect { max_calls }) ()

let memoryless ~capacity ~target =
  make ~name:"memoryless" ~kind:(Memoryless { capacity; target }) ()

let memory ~capacity ~target =
  make ~name:"memory" ~kind:(Memory { capacity; target }) ()

let always_admit () = make ~name:"always-admit" ~kind:Always ()
