module Chernoff = Rcbr_effbw.Chernoff
module Histogram = Rcbr_util.Histogram
module Service_model = Rcbr_policy.Service_model

(* The admission fast path (DESIGN.md §7).

   The measurement-based schemes describe "a typical call" by a weighted
   bandwidth-level distribution; the paper's observation that the
   aggregate is the running sum of per-call histograms makes that state
   incrementally maintainable.  Rates are interned into a dense level
   table (exact float match, as the seed's hashtable keys were), and the
   controller maintains, per level index

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

   The decision sequence is property-tested against a from-scratch
   oracle that rebuilds the [(rate, weight)] list from per-call records
   on every decision and runs the cold [Chernoff.max_calls]
   (test/seed_oracle.ml).  The aggregate differs from a rebuild only by
   float-summation order, which the deviation probe below bounds. *)

type call_state = {
  mutable level : int;
  mutable since : float;
  history : Histogram.t;  (* finalized seconds per level, this call *)
  mutable segments : int;  (* finalized history segments (weight > 0) *)
}

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
  calls : (int, call_state) Hashtbl.t;
  (* Level table: rate values interned in first-seen order. *)
  mutable values : float array;
  mutable n_levels : int;
  level_of : (float, int) Hashtbl.t;
  (* Incremental aggregates (level-indexed). *)
  hist : Histogram.t;
  cur_count : Histogram.t;
  since_sum : Histogram.t;
  mutable hist_segments : int;  (* total finalized segments in [hist] *)
  (* Lower bound on the minimum [since] over active calls (infinity
     when none was ever admitted; never raised by departures, so it can
     only be stale *downward* — see [all_fresh]). *)
  mutable since_floor : float;
  solver : Chernoff.Solver.t;
  (* Tick cache: while nothing has mutated the call population since
     the last load at the same [now], the marginal, the population, the
     capacity and the target are all unchanged, so the stored verdict
     is the decision. *)
  mutable cache_valid : bool;
  mutable cache_now : float;
  mutable cache_verdict : bool;
  (* Instrumentation. *)
  mutable decisions : int;
  mutable admits : int;
  mutable decision_hash : int;
  mutable batch_hits : int;
}

let name t = t.name
let n_in_system t = Hashtbl.length t.calls

let stats t =
  {
    decisions = t.decisions;
    admits = t.admits;
    decision_hash = t.decision_hash;
    batch_hits = t.batch_hits;
    solver = Chernoff.Solver.stats t.solver;
  }

let level_of t rate =
  match Hashtbl.find_opt t.level_of rate with
  | Some l -> l
  | None ->
      let l = t.n_levels in
      if l >= Array.length t.values then begin
        let values = Array.make (2 * Array.length t.values) 0. in
        Array.blit t.values 0 values 0 l;
        t.values <- values
      end;
      t.values.(l) <- rate;
      Hashtbl.add t.level_of rate l;
      t.n_levels <- l + 1;
      l

(* --- state maintenance ---------------------------------------------- *)

let accumulate t state ~now =
  let elapsed = now -. state.since in
  if elapsed > 0. then begin
    Histogram.add state.history state.level elapsed;
    Histogram.add t.hist state.level elapsed;
    state.segments <- state.segments + 1;
    t.hist_segments <- t.hist_segments + 1
  end;
  state.since <- now

let on_admit t ~now ~call ~rate =
  assert (not (Hashtbl.mem t.calls call));
  t.cache_valid <- false;
  let level = level_of t rate in
  let state =
    {
      level;
      since = now;
      history = Histogram.create ~levels:(max 1 t.n_levels);
      segments = 0;
    }
  in
  Hashtbl.replace t.calls call state;
  if now < t.since_floor then t.since_floor <- now;
  Histogram.add t.cur_count level 1.;
  Histogram.add t.since_sum level now

let on_renegotiate t ~now ~call ~rate =
  t.cache_valid <- false;
  match Hashtbl.find_opt t.calls call with
  | None -> ()
  | Some st ->
      (* Close the ongoing segment at the old level... *)
      Histogram.sub t.cur_count st.level 1.;
      Histogram.sub t.since_sum st.level st.since;
      accumulate t st ~now;
      (* ...and open one at the new. *)
      let level = level_of t rate in
      st.level <- level;
      Histogram.add t.cur_count level 1.;
      Histogram.add t.since_sum level now

let on_depart t ~now ~call =
  ignore now;
  t.cache_valid <- false;
  match Hashtbl.find_opt t.calls call with
  | None -> ()
  | Some st ->
      Hashtbl.remove t.calls call;
      (* The departing call takes its history with it, exactly as the
         seed's per-call table did: the ongoing tail is dropped, not
         finalized. *)
      Histogram.sub t.cur_count st.level 1.;
      Histogram.sub t.since_sum st.level st.since;
      Histogram.iter_support st.history (fun l w -> Histogram.sub t.hist l w);
      t.hist_segments <- t.hist_segments - st.segments

(* --- decision path ---------------------------------------------------- *)

let load_instantaneous t =
  Chernoff.Solver.reset t.solver;
  Histogram.iter_support t.cur_count (fun l w ->
      Chernoff.Solver.push t.solver ~level:t.values.(l) ~weight:w)

let load_history t ~now =
  Chernoff.Solver.reset t.solver;
  for l = 0 to t.n_levels - 1 do
    let ongoing =
      (Histogram.weight t.cur_count l *. now) -. Histogram.weight t.since_sum l
    in
    let w = Histogram.weight t.hist l +. ongoing in
    Chernoff.Solver.push t.solver ~level:t.values.(l) ~weight:w
  done

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
         same-tick ramp, where the fold below would be O(calls) per
         decision.  When the bound is inconclusive the exact fold
         decides, as the seed did. *)
      now <= t.since_floor
     (* lint: allow D002, T001 — conjunction over all calls, so the
        result is invariant under bucket order and taints nothing *)
     || Hashtbl.fold (fun _ st acc -> acc && now -. st.since <= 0.) t.calls true)

let solver_admit t ~capacity ~target ~n =
  if Chernoff.Solver.n_levels t.solver = 0 then true
  else begin
    Chernoff.Solver.commit_weighted t.solver;
    Chernoff.Solver.admits t.solver ~capacity ~target ~calls:n
  end

(* Tick-cached decision.  A cache hit means no [on_admit]/[on_renegotiate]/
   [on_depart] ran since the last load and [now] is bit-equal, so
   reloading would push the identical floats for the same population
   and probe the identical [fits] — the stored verdict is therefore
   *exactly* the per-decision one (property-tested against the seed
   oracle in test/test_admission.ml), served without redoing the load
   or the probe. *)
let chernoff_admit t ~now ~capacity ~target =
  if t.cache_valid && Float.equal t.cache_now now then begin
    t.batch_hits <- t.batch_hits + 1;
    t.cache_verdict
  end
  else begin
    (match t.kind with
    | Memory _ when not (all_fresh t ~now) -> load_history t ~now
    | _ -> load_instantaneous t);
    t.cache_now <- now;
    t.cache_valid <- true;
    t.cache_verdict <- solver_admit t ~capacity ~target ~n:(n_in_system t);
    t.cache_verdict
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

let debug_aggregate_deviation t ~now =
  let rebuilt = Array.make (max 1 t.n_levels) 0. in
  (* Iterate calls in sorted-id order so the rebuilt aggregate — a float
     sum — is a pure function of the controller state, not of the
     hashtable's bucket history. *)
  Rcbr_util.Tables.iter_sorted
    (fun _ st ->
      Histogram.iter_support st.history (fun l w ->
          rebuilt.(l) <- rebuilt.(l) +. w);
      let ongoing = now -. st.since in
      if ongoing > 0. then rebuilt.(st.level) <- rebuilt.(st.level) +. ongoing)
    t.calls;
  let dev = ref 0. in
  for l = 0 to t.n_levels - 1 do
    let incremental =
      Histogram.weight t.hist l
      +. (Histogram.weight t.cur_count l *. now)
      -. Histogram.weight t.since_sum l
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
    calls = Hashtbl.create 64;
    values = Array.make 16 0.;
    n_levels = 0;
    level_of = Hashtbl.create 32;
    hist = Histogram.create ~levels:16;
    cur_count = Histogram.create ~levels:16;
    since_sum = Histogram.create ~levels:16;
    hist_segments = 0;
    since_floor = infinity;
    solver = Chernoff.Solver.create ();
    cache_valid = false;
    cache_now = 0.;
    cache_verdict = false;
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
