module Trace = Rcbr_traffic.Trace

type constraint_ = Buffer_bound of float | Delay_bound of int

type params = {
  grid : Rate_grid.t;
  reneg_cost : float;
  bandwidth_cost : float;
  constraint_ : constraint_;
}

type stats = {
  slots : int;
  expanded : int;
  max_frontier : int;
  pruned_by_lemma : int;
  pruned_by_cap : int;
}

(* Beam-search mode (see {!Beam} for the user-facing API): keep at most
   [width] nodes per stage, ranked by [weight - prior_weight * lp] where
   [lp] is the cumulative log prior of the node's level path under
   [log_init]/[log_trans].  [observed.(a).(b)] records whether the prior
   actually saw the a->b transition (vs the smoothing floor); such
   expansions are counted as prior hits. *)
type beam_opts = {
  width : int;
  log_init : float array;
  log_trans : float array array;
  observed : bool array array;
  prior_weight : float;
}

type beam_counters = { kept : int; dropped_by_beam : int; prior_hits : int }

exception Infeasible of int

(* Backpointer chain recording only the renegotiation instants, so the
   per-slot frontiers stay small and path reconstruction is O(#changes).
   This is the only boxed per-node state; everything else lives in
   structure-of-arrays frontiers below. *)
type change = { at : int; level : int; prev : change option }

(* Frontier: parallel arrays with strictly increasing buffer and
   strictly decreasing weight.  [buf]/[wt] are unboxed float arrays and
   the whole structure is reused across slots (grown to the running max,
   never shrunk), so the per-slot work allocates nothing but the
   [change] records of actual renegotiations. *)
type frontier = {
  mutable buf : float array;
  mutable wt : float array;
  mutable lvl : int array;
  mutable chg : change option array;
  mutable lp : float array;
      (* cumulative log prior of the level path; 0 when beam search is
         off — never read by the exact solver, so carrying it does not
         perturb any buf/wt numerics *)
  mutable len : int;
}

let fr_make cap =
  {
    buf = Array.make cap 0.;
    wt = Array.make cap 0.;
    lvl = Array.make cap 0;
    chg = Array.make cap None;
    lp = Array.make cap 0.;
    len = 0;
  }

let fr_ensure f n =
  let cap = Array.length f.buf in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let grow_f a = Array.append a (Array.make (cap' - cap) 0.) in
    f.buf <- grow_f f.buf;
    f.wt <- grow_f f.wt;
    f.lvl <- Array.append f.lvl (Array.make (cap' - cap) 0);
    f.chg <- Array.append f.chg (Array.make (cap' - cap) None);
    f.lp <- grow_f f.lp
  end

(* Buffer occupancies within one part in 10^9 are the same physical
   state.  Raw float equality here (the seed's behaviour) let paths
   differing only by rounding noise survive deduplication and bloat the
   frontier; the epsilon mirrors the NIU's grid-level comparison.
   Inlined, here and in [fr_push], because under [-opaque] a call that
   is not would box its float arguments on every expanded node. *)
let[@inline] same_buffer a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

(* Append (b, w, l, c) under the Pareto discipline: callers feed nodes
   in buffer-ascending order and only when [w] beats the running weight
   minimum; a node sharing the top's buffer replaces it (the later node
   is the cheaper one). *)
let[@inline] fr_push f b w l c p =
  if f.len > 0 && same_buffer f.buf.(f.len - 1) b then begin
    let i = f.len - 1 in
    f.buf.(i) <- b;
    f.wt.(i) <- w;
    f.lvl.(i) <- l;
    f.chg.(i) <- c;
    f.lp.(i) <- p
  end
  else begin
    fr_ensure f (f.len + 1);
    f.buf.(f.len) <- b;
    f.wt.(f.len) <- w;
    f.lvl.(f.len) <- l;
    f.chg.(f.len) <- c;
    f.lp.(f.len) <- p;
    f.len <- f.len + 1
  end

let bound_function constraint_ trace =
  match constraint_ with
  | Buffer_bound b ->
      assert (b >= 0.);
      fun _ -> b
  | Delay_bound d ->
      assert (d >= 0);
      (* Formula (5) as a time-varying backlog bound: data entering at
         slot s leaves by the end of slot s+d iff
         Q(t) <= A(t) - A(t-d), the arrivals of the last d slots. *)
      let prefix = Trace.prefix_sums trace in
      fun t -> prefix.(t + 1) -. prefix.(max 0 (t - d + 1))

let solve_raw ?(lemma_pruning = true) ?frontier_cap ?beam ?start_level params
    trace =
  (match frontier_cap with Some c -> assert (c >= 2) | None -> ());
  let grid = params.grid in
  let m = Rate_grid.levels grid in
  let tau = Trace.slot_duration trace in
  let n = Trace.length trace in
  let k_cost = params.reneg_cost in
  assert (k_cost >= 0.);
  assert (params.bandwidth_cost > 0.);
  (match start_level with
  | Some s -> assert (s >= 0 && s < m)
  | None -> ());
  let beam_on, beam_width, log_init, log_trans, observed, prior_weight =
    match beam with
    | None -> (false, max_int, [||], [||], [||], 0.)
    | Some b ->
        assert (b.width >= 1);
        assert (Array.length b.log_init = m);
        assert (Array.length b.log_trans = m && Array.length b.observed = m);
        (true, b.width, b.log_init, b.log_trans, b.observed, b.prior_weight)
  in
  let drain = Array.init m (fun i -> Rate_grid.rate grid i *. tau) in
  let slot_cost = Array.map (fun d -> params.bandwidth_cost *. d) drain in
  let bound = bound_function params.constraint_ trace in
  let expanded = ref 0 and max_frontier = ref 0 in
  let pruned_by_lemma = ref 0 and pruned_by_cap = ref 0 in
  let beam_kept = ref 0 and beam_dropped = ref 0 and prior_hits = ref 0 in
  let cur = ref (Array.init m (fun _ -> fr_make 8)) in
  let nxt = ref (Array.init m (fun _ -> fr_make 8)) in
  let g = fr_make 8 in
  let same = fr_make 8 in
  let via = fr_make 8 in
  let heads = Array.make m 0 in
  (* Initial frontiers at slot 0: the first allocation is part of call
     setup and costs no renegotiation — except in receding-horizon use,
     where [start_level] is the rate already in force and every other
     level pays one renegotiation up front. *)
  let a0 = Trace.frame trace 0 in
  let b_max0 = bound 0 in
  Array.iteri
    (fun l f ->
      let b = Float.max 0. (a0 -. drain.(l)) in
      let w0 =
        match start_level with
        | Some s when s <> l -> slot_cost.(l) +. k_cost
        | _ -> slot_cost.(l)
      in
      let p0 = if beam_on then log_init.(l) else 0. in
      if b <= b_max0 then
        fr_push f b w0 l (Some { at = 0; level = l; prev = None }) p0)
    !cur;
  let check_feasible t fs =
    if Array.for_all (fun f -> f.len = 0) fs then raise (Infeasible t)
  in
  check_feasible 0 !cur;
  (* Pareto over the union of all level frontiers (each sorted): an
     m-way merge by ascending buffer (ties to the lowest level) with the
     weight-minimum filter applied on the fly.  [min_w] only falls, so a
     head that cannot beat it now never will: each scan skips such heads
     for good, and every pick is pushed.  A call costs
     O(frontier + levels x envelope). *)
  let global_frontier src dst =
    dst.len <- 0;
    Array.fill heads 0 m 0;
    let min_w = ref infinity in
    let continue_ = ref true in
    while !continue_ do
      let pick = ref (-1) in
      for l = m - 1 downto 0 do
        let f = src.(l) in
        while heads.(l) < f.len && not (f.wt.(heads.(l)) < !min_w) do
          heads.(l) <- heads.(l) + 1
        done;
        if
          heads.(l) < f.len
          && (!pick < 0 || f.buf.(heads.(l)) <= src.(!pick).buf.(heads.(!pick)))
        then pick := l
      done;
      if !pick < 0 then continue_ := false
      else begin
        let f = src.(!pick) in
        let i = heads.(!pick) in
        heads.(!pick) <- i + 1;
        fr_push dst f.buf.(i) f.wt.(i) f.lvl.(i) f.chg.(i) f.lp.(i);
        min_w := f.wt.(i)
      end
    done
  in
  (* Map a frontier through slot t at the target level, clamping the
     buffer at zero and discarding constraint violations.  The input
     order (buffer ascending, weight descending) is preserved; clamped
     entries share buffer 0 and the later (cheaper) one wins in
     [fr_push]. *)
  let shift_map ~t ~a ~b_max target_lvl extra src dst =
    dst.len <- 0;
    let d = drain.(target_lvl) in
    let cost = slot_cost.(target_lvl) +. extra in
    for i = 0 to src.len - 1 do
      let b = Float.max 0. (src.buf.(i) +. a -. d) in
      if b <= b_max then begin
        incr expanded;
        let changes =
          if src.lvl.(i) = target_lvl && Float.equal extra 0. then src.chg.(i)
          else Some { at = t; level = target_lvl; prev = src.chg.(i) }
        in
        let p =
          if beam_on then begin
            if observed.(src.lvl.(i)).(target_lvl) then incr prior_hits;
            src.lp.(i) +. log_trans.(src.lvl.(i)).(target_lvl)
          end
          else 0.
        in
        fr_push dst b (src.wt.(i) +. cost) target_lvl changes p
      end
    done
  in
  (* Merge two buffer-ascending frontiers (ties favour the first) and
     keep the Pareto minima of weight. *)
  let merge_pareto a b dst =
    dst.len <- 0;
    let min_w = ref infinity in
    let i = ref 0 and j = ref 0 in
    while !i < a.len || !j < b.len do
      let from_a =
        !j >= b.len || (!i < a.len && a.buf.(!i) <= b.buf.(!j))
      in
      let f = if from_a then a else b in
      let k = if from_a then !i else !j in
      if from_a then incr i else incr j;
      if f.wt.(k) < !min_w then begin
        fr_push dst f.buf.(k) f.wt.(k) f.lvl.(k) f.chg.(k) f.lp.(k);
        min_w := f.wt.(k)
      end
    done
  in
  for t = 1 to n - 1 do
    let a = Trace.frame trace t in
    let b_max = bound t in
    global_frontier !cur g;
    let nxt_fs = !nxt in
    for l = 0 to m - 1 do
      shift_map ~t ~a ~b_max l 0. !cur.(l) same;
      shift_map ~t ~a ~b_max l k_cost g via;
      merge_pareto same via nxt_fs.(l)
    done;
    (* Lemma 1 cross-level pruning: drop a node when some node (any
       level) has no larger buffer and weight + K not larger.  Scanning
       the global frontier gives, for each buffer, the best weight
       available at or below it.  With K = 0 the rule degenerates to
       plain Pareto dominance, already enforced within each level. *)
    if lemma_pruning && k_cost > 0. then begin
      global_frontier nxt_fs via;
      (* [via] doubles as the post-step global frontier scratch. *)
      let g' = via in
      Array.iter
        (fun f ->
          if f.len > 0 then begin
            let gi = ref 0 in
            let best = ref infinity in
            let out = ref 0 in
            for i = 0 to f.len - 1 do
              while !gi < g'.len && g'.buf.(!gi) <= f.buf.(i) do
                (* A node never beats itself: +K makes the comparison
                   strict for same-level same-state entries. *)
                if g'.wt.(!gi) < !best then best := g'.wt.(!gi);
                incr gi
              done;
              if not (!best +. k_cost <= f.wt.(i)) then begin
                let o = !out in
                f.buf.(o) <- f.buf.(i);
                f.wt.(o) <- f.wt.(i);
                f.lvl.(o) <- f.lvl.(i);
                f.chg.(o) <- f.chg.(i);
                f.lp.(o) <- f.lp.(i);
                incr out
              end
            done;
            pruned_by_lemma := !pruned_by_lemma + f.len - !out;
            f.len <- !out
          end)
        nxt_fs
    end;
    (* Optional approximation: subsample oversized frontiers.  Retained
       nodes keep exact buffers and costs (feasibility is never
       compromised); only alternative paths are dropped, so the error
       does not compound across slots.  The lowest-buffer node (most
       future headroom) and lowest-weight node (cheapest so far) always
       survive. *)
    (match frontier_cap with
    | None -> ()
    | Some cap ->
        Array.iter
          (fun f ->
            if f.len > cap then begin
              for i = 0 to cap - 1 do
                let idx = i * (f.len - 1) / (cap - 1) in
                f.buf.(i) <- f.buf.(idx);
                f.wt.(i) <- f.wt.(idx);
                f.lvl.(i) <- f.lvl.(idx);
                f.chg.(i) <- f.chg.(idx);
                f.lp.(i) <- f.lp.(idx)
              done;
              pruned_by_cap := !pruned_by_cap + f.len - cap;
              f.len <- cap
            end)
          nxt_fs);
    (* Beam selection: keep the [beam_width] best nodes across all
       levels by score = weight - prior_weight * log-prior, plus — for
       feasibility — the globally lowest-buffer node.  Buffer evolution
       [b' = max 0 (b + a - d)] is monotone in [b], so the minimum
       reachable buffer under the beam equals the exact solver's at
       every slot (the min-buffer node's successors include the next
       min), and the beam raises [Infeasible] iff the exact solver
       does.  Each per-level frontier is compacted to a subsequence, so
       the Pareto invariants (buffer ascending, weight descending) are
       preserved. *)
    (if beam_on then
       let total = Array.fold_left (fun acc f -> acc + f.len) 0 nxt_fs in
       if total > beam_width then begin
         let score = Array.make total 0. in
         (* Globally lowest-buffer candidate, first-in-scan-order on
            ties: deterministic, independent of the score ordering. *)
         let forced = ref 0 and min_buf = ref infinity in
         let c = ref 0 in
         Array.iter
           (fun f ->
             for i = 0 to f.len - 1 do
               score.(!c) <- f.wt.(i) -. (prior_weight *. f.lp.(i));
               if f.buf.(i) < !min_buf then begin
                 min_buf := f.buf.(i);
                 forced := !c
               end;
               incr c
             done)
           nxt_fs;
         let order = Array.init total (fun i -> i) in
         Array.sort
           (fun a b ->
             let s = Float.compare score.(a) score.(b) in
             if s <> 0 then s else compare (a : int) b)
           order;
         let keep = Array.make total false in
         keep.(!forced) <- true;
         (* The forced node takes one of the [beam_width] slots; the
            rest go to the best-scoring candidates in order. *)
         let slots_left = ref (beam_width - 1) in
         Array.iter
           (fun i ->
             if !slots_left > 0 && not keep.(i) then begin
               keep.(i) <- true;
               decr slots_left
             end)
           order;
         let c = ref 0 in
         Array.iter
           (fun f ->
             let out = ref 0 in
             for i = 0 to f.len - 1 do
               if keep.(!c) then begin
                 let o = !out in
                 f.buf.(o) <- f.buf.(i);
                 f.wt.(o) <- f.wt.(i);
                 f.lvl.(o) <- f.lvl.(i);
                 f.chg.(o) <- f.chg.(i);
                 f.lp.(o) <- f.lp.(i);
                 incr out
               end;
               incr c
             done;
             f.len <- !out)
           nxt_fs;
         beam_kept := !beam_kept + beam_width;
         beam_dropped := !beam_dropped + total - beam_width
       end
       else beam_kept := !beam_kept + total);
    check_feasible t nxt_fs;
    let total = Array.fold_left (fun acc f -> acc + f.len) 0 nxt_fs in
    if total > !max_frontier then max_frontier := total;
    (* Recycle the previous slot's frontiers as the next scratch. *)
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp
  done;
  (* Best full path: minimum weight over every surviving node. *)
  let best_w = ref infinity and best_c = ref None and found = ref false in
  Array.iter
    (fun f ->
      for i = 0 to f.len - 1 do
        if (not !found) || f.wt.(i) < !best_w then begin
          found := true;
          best_w := f.wt.(i);
          best_c := f.chg.(i)
        end
      done)
    !cur;
  if not !found then raise (Infeasible n);
  let rec collect acc = function
    | None -> acc
    | Some { at; level; prev } ->
        collect
          ({ Schedule.start_slot = at; rate = Rate_grid.rate grid level } :: acc)
          prev
  in
  let segments = collect [] !best_c in
  let schedule = Schedule.create ~fps:(Trace.fps trace) ~n_slots:n segments in
  ( schedule,
    {
      slots = n;
      expanded = !expanded;
      max_frontier = !max_frontier;
      pruned_by_lemma = !pruned_by_lemma;
      pruned_by_cap = !pruned_by_cap;
    },
    {
      kept = !beam_kept;
      dropped_by_beam = !beam_dropped;
      prior_hits = !prior_hits;
    } )

let solve_with_stats ?lemma_pruning ?frontier_cap params trace =
  let schedule, stats, _ = solve_raw ?lemma_pruning ?frontier_cap params trace in
  (schedule, stats)

let solve params trace = fst (solve_with_stats params trace)

(* The zero-loss CBR rate depends only on (trace, buffer); the Fig. 2
   cost-ratio sweep calls [default_params] once per alpha on the same
   trace, so memoize the bisection.  Keyed by physical trace identity;
   guarded by a mutex so pool workers can share the cache (a lost race
   recomputes the same deterministic value, never a different one). *)
let needed_rate_cache : (Trace.t * float * float) list ref = ref []
let needed_rate_mutex = Mutex.create ()

let needed_rate ~trace ~buffer =
  let lookup () =
    List.find_opt
      (fun (t, b, _) -> t == trace && Float.equal b buffer)
      !needed_rate_cache
  in
  Mutex.lock needed_rate_mutex;
  let hit = lookup () in
  Mutex.unlock needed_rate_mutex;
  match hit with
  | Some (_, _, r) -> r
  | None ->
      let r =
        Rcbr_queue.Sigma_rho.min_rate ~trace ~buffer ~target_loss:0.
      in
      Mutex.lock needed_rate_mutex;
      let keep = List.filteri (fun i _ -> i < 15) !needed_rate_cache in
      needed_rate_cache := (trace, buffer, r) :: keep;
      Mutex.unlock needed_rate_mutex;
      r

let default_params ?(levels = 20) ?(buffer = 300_000.) ~cost_ratio trace =
  (* The grid must be able to drain the worst burst within the buffer
     bound; the zero-loss CBR rate for this buffer is exactly that. *)
  let needed = needed_rate ~trace ~buffer in
  let base = Rate_grid.uniform ~lo:48_000. ~hi:2_400_000. ~levels in
  let grid = Rate_grid.covering base ~peak:(needed *. 1.0001) in
  {
    grid;
    reneg_cost = cost_ratio;
    bandwidth_cost = 1.;
    constraint_ = Buffer_bound buffer;
  }
