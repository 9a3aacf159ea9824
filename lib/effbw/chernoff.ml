module Numeric = Rcbr_util.Numeric

type marginal = (float * float) array

let mean m = Array.fold_left (fun acc (p, e) -> acc +. (p *. e)) 0. m

let max_level m =
  Array.fold_left
    (fun acc (p, e) -> if p > 0. then Float.max acc e else acc)
    neg_infinity m

let log_mgf m ~theta =
  let terms =
    Array.map
      (fun (p, e) -> if Float.equal p 0. then neg_infinity else log p +. (theta *. e))
      m
  in
  Rcbr_util.Numeric.log_sum_exp terms

let rate_function m c =
  let mu = mean m in
  let top = max_level m in
  if c <= mu then 0.
  else if c > top then infinity
  else begin
    let objective theta = (theta *. c) -. log_mgf m ~theta in
    (* The objective is concave; grow the bracket until it is decreasing
       at the right end, then golden-section. *)
    let hi = ref 1. in
    let decreasing_at x = objective x < objective (0.99 *. x) in
    while (not (decreasing_at !hi)) && !hi < 1e9 do
      hi := !hi *. 2.
    done;
    let theta_star = Numeric.golden_max ~f:objective 0. !hi in
    Float.max 0. (objective theta_star)
  end

let overflow_estimate m ~n ~capacity_per_call =
  assert (n > 0);
  let i = rate_function m capacity_per_call in
  if Float.equal i infinity then 0. else exp (-.float_of_int n *. i)

(* Relative tolerance of the capacity searches. *)
let capacity_tol = 1e-6

let capacity_for_target m ~n ~target =
  assert (target > 0. && target < 1.);
  let lo = mean m and hi = max_level m in
  if overflow_estimate m ~n ~capacity_per_call:lo <= target then lo
  else
    Numeric.find_min_such_that ~tol:capacity_tol
      ~pred:(fun c -> overflow_estimate m ~n ~capacity_per_call:c <= target)
      lo hi

(* The searches' bound: past [capacity /. mean] calls each call's share
   is below the mean, where the estimate is 1.  Clamped to 2^60 so that
   [int_of_float] stays in range (it wraps for a vanishing mean) and no
   midpoint or gallop overflows. *)
let upper_calls ~capacity ~mean =
  let x = capacity /. mean in
  if x < 0x1p60 then int_of_float x + 1 else 1 lsl 60

let max_calls m ~capacity ~target =
  assert (capacity >= 0.);
  let mu = mean m in
  if mu <= 0. then max_int
  else begin
    let fits n =
      n > 0
      && overflow_estimate m ~n ~capacity_per_call:(capacity /. float_of_int n)
         <= target
    in
    (* Overflow probability is monotone in n (same capacity shared by
       more calls), so binary search over integers. *)
    let upper = upper_calls ~capacity ~mean:mu in
    if not (fits 1) then 0
    else begin
      let lo = ref 1 and hi = ref upper in
      (* Invariant: fits !lo, not (fits (!hi)) or hi = upper boundary. *)
      if fits upper then upper
      else begin
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if fits mid then lo := mid else hi := mid
        done;
        !lo
      end
    end
  end

(* --- Reusable warm-started solver (the admission fast path) ---------- *)

module Solver = struct
  (* The certificate's state.  Every field is a float, so the record is
     stored flat and a write boxes nothing. *)
  type work = {
    mutable c : float;  (* the probe's per-call capacity *)
    mutable l : float;  (* -log target / n *)
    mutable x : float;  (* argument of [moments] *)
    mutable f : float;  (* [moments]' results at x: f = theta c - Lambda, *)
    mutable d : float;  (* f' = c - Lambda' *)
    mutable v : float;  (* and Lambda'' *)
    mutable lo : float;  (* certified f' > 0; neg_infinity = none yet *)
    mutable flo : float;
    mutable dlo : float;
    mutable hi : float;  (* certified f' < 0; infinity = none yet *)
    mutable fhi : float;
    mutable dhi : float;
    mutable best : float;  (* max of f - eps_f over the probes *)
    mutable flat_x : float;  (* last probe whose f' sign is uncertain *)
    mutable flat_f : float;  (* its f + eps_f; infinity = none *)
    mutable flat_d : float;  (* its bound on |f'| *)
    mutable hint : float;  (* warm start: last estimate of theta*; 0 = none *)
    (* Table bounds, set at load. *)
    mutable bottom : float;  (* lowest level *)
    mutable pmax : float;  (* max |log p| *)
    mutable emax : float;  (* max |level| *)
  }

  (* The solver keeps the quantized log-MGF table — per-level bandwidth
     [e] and cached [log p] — in flat scratch arrays that are refilled
     in place by [set_marginal]/[reset]+[push]+[commit], so a decision
     loop (admission control, capacity sweeps) allocates nothing per
     query once the arrays reach their high-water size.

     Numerical contract: for the same marginal, every query returns the
     exact float the cold module-level function returns.  [log_mgf] does
     the same two passes in the same index order as
     [Numeric.log_sum_exp] over the same terms (entries with p = 0
     contribute a [neg_infinity] term there, i.e. an exact [+. 0.] in
     the sum, so skipping them at load time preserves every bit), and
     the warm starts below only change *which* queries are made, never
     the value a query returns. *)
  type t = {
    mutable e : float array;  (* level bandwidths, p > 0 entries only *)
    mutable logp : float array;  (* log p per level *)
    mutable n : int;  (* active prefix of [e]/[logp] *)
    mutable mean : float;
    mutable top : float;
    mutable loading : bool;  (* between [reset] and [commit] *)
    (* Warm-start state. *)
    mutable bracket_hint : int;  (* exponent k of the last 2^k theta bracket *)
    mutable calls_hint : int;  (* last [max_calls] answer; 0 = none *)
    work : work;  (* the certificate's floats; see [certify] *)
    (* Instrumentation. *)
    mutable mgf_evals : int;
    mutable fits_evals : int;
    mutable queries : int;
    mutable fallbacks : int;
  }

  let create () =
    {
      e = Array.make 16 0.;
      logp = Array.make 16 0.;
      n = 0;
      mean = 0.;
      top = neg_infinity;
      loading = false;
      bracket_hint = -1;
      calls_hint = 0;
      work =
        {
          c = 0.; l = 0.; x = 0.; f = 0.; d = 0.; v = 0.;
          lo = 0.; flo = 0.; dlo = 0.; hi = 0.; fhi = 0.; dhi = 0.;
          best = 0.; flat_x = 0.; flat_f = 0.; flat_d = 0.; hint = 0.;
          bottom = 0.; pmax = 0.; emax = 0.;
        };
      mgf_evals = 0;
      fits_evals = 0;
      queries = 0;
      fallbacks = 0;
    }

  let grow t =
    let cap = 2 * Array.length t.e in
    let e = Array.make cap 0. and logp = Array.make cap 0. in
    Array.blit t.e 0 e 0 t.n;
    Array.blit t.logp 0 logp 0 t.n;
    t.e <- e;
    t.logp <- logp

  let reset t =
    t.n <- 0;
    t.loading <- true

  (* Raw entry: [logp] is already the log-probability. *)
  let push_log t ~level ~logp =
    assert (t.loading);
    if t.n >= Array.length t.e then grow t;
    t.e.(t.n) <- level;
    t.logp.(t.n) <- logp;
    t.n <- t.n + 1

  (* The certificate's error bounds read these off the table. *)
  let table_bounds t =
    let w = t.work in
    w.bottom <- infinity;
    w.pmax <- 0.;
    w.emax <- 0.;
    for i = 0 to t.n - 1 do
      let e = t.e.(i) and lp = Float.abs t.logp.(i) in
      if e < w.bottom then w.bottom <- e;
      if not (lp <= w.pmax) then w.pmax <- lp;
      if Float.abs e > w.emax then w.emax <- Float.abs e
    done

  let commit t =
    assert (t.loading);
    t.loading <- false;
    let mu = ref 0. and top = ref neg_infinity in
    for i = 0 to t.n - 1 do
      let p = exp t.logp.(i) in
      mu := !mu +. (p *. t.e.(i));
      if p > 0. then top := Float.max !top t.e.(i)
    done;
    t.mean <- !mu;
    t.top <- !top;
    table_bounds t

  let set_marginal t m =
    reset t;
    Array.iter (fun (p, e) -> if p > 0. then push_log t ~level:e ~logp:(log p)) m;
    t.loading <- false;
    (* Mean and max over the raw marginal, matching the cold functions
       bit for bit (p = 0 entries add an exact 0.). *)
    t.mean <- mean m;
    t.top <- max_level m;
    table_bounds t

  let of_marginal m =
    let t = create () in
    set_marginal t m;
    t

  (* Weighted load for the admission controllers: entries arrive as
     (bandwidth, weight >= 0) pairs from a histogram traversal; [commit]
     then normalizes.  Weights <= 0 are skipped. *)
  let push t ~level ~weight =
    assert (t.loading);
    if weight > 0. then begin
      if t.n >= Array.length t.e then grow t;
      t.e.(t.n) <- level;
      t.logp.(t.n) <- weight;  (* raw until [commit_weighted] *)
      t.n <- t.n + 1
    end

  let commit_weighted t =
    assert (t.loading);
    let total = ref 0. in
    for i = 0 to t.n - 1 do
      total := !total +. t.logp.(i)
    done;
    let total = !total in
    assert (total > 0.);
    for i = 0 to t.n - 1 do
      t.logp.(i) <- log (t.logp.(i) /. total)
    done;
    commit t

  let n_levels t = t.n
  (* lint: allow R001 — probe: tests check it against Chernoff.mean *)
  let mean t = t.mean
  (* lint: allow R001 — probe: tests check it against Chernoff.max_level *)
  let max_level t = t.top

  let log_mgf t ~theta =
    assert (not t.loading);
    assert (t.n > 0);
    t.mgf_evals <- t.mgf_evals + 1;
    (* Two passes, same order as [Numeric.log_sum_exp] on the term
       array; no allocation. *)
    let m = ref neg_infinity in
    for i = 0 to t.n - 1 do
      let term = t.logp.(i) +. (theta *. t.e.(i)) in
      if term > !m then m := term
    done;
    let m = !m in
    if Float.equal m neg_infinity then neg_infinity
    else begin
      let s = ref 0. in
      for i = 0 to t.n - 1 do
        s := !s +. exp (t.logp.(i) +. (theta *. t.e.(i)) -. m)
      done;
      m +. log !s
    end

  (* Theta bracket for the golden section: the cold scan doubles [hi]
     from 1 until the objective is decreasing at [hi] (first k >= 0 with
     [decreasing_at (2^k)], capped at 1e9).  For a concave objective the
     set of such k is upward closed — at most one k straddles the peak
     (0.99*2^k < theta* < 2^k needs theta* within 1% of 2^k, and the
     next k up is already past it) — so walking *down* from the previous
     bracket finds the same minimal k the cold upward scan finds, in O(1)
     evaluations when consecutive queries are close.  If the hint is
     cold or wrong we fall back to the upward scan from it, which
     reaches the same fixed point. *)
  let bracket t ~decreasing_at =
    let pow k = Float.of_int (1 lsl k) in
    let k = ref (max 0 t.bracket_hint) in
    if decreasing_at (pow !k) then
      (* Walk down to the minimal decreasing power of two — the one the
         cold upward scan stops at. *)
      while !k > 0 && decreasing_at (pow (!k - 1)) do
        decr k
      done
    else
      (* Upward closure: everything at or below the hint is
         non-decreasing too, so resuming the cold scan here reaches the
         same fixed point (or the same 2^30 >= 1e9 cap). *)
      while (not (decreasing_at (pow !k))) && pow !k < 1e9 do
        incr k
      done;
    t.bracket_hint <- !k;
    pow !k

  let rate_function t c =
    assert (not t.loading);
    t.queries <- t.queries + 1;
    if c <= t.mean then 0.
    else if c > t.top then infinity
    else begin
      let objective theta = (theta *. c) -. log_mgf t ~theta in
      let decreasing_at x = objective x < objective (0.99 *. x) in
      let hi = bracket t ~decreasing_at in
      let theta_star = Numeric.golden_max ~f:objective 0. hi in
      Float.max 0. (objective theta_star)
    end

  let overflow_estimate t ~n ~capacity_per_call =
    assert (n > 0);
    let i = rate_function t capacity_per_call in
    if Float.equal i infinity then 0. else exp (-.float_of_int n *. i)

  let capacity_for_target t ~n ~target =
    assert (target > 0. && target < 1.);
    let lo = t.mean and hi = t.top in
    if overflow_estimate t ~n ~capacity_per_call:lo <= target then lo
    else
      Numeric.find_min_such_that ~tol:capacity_tol
        ~pred:(fun c -> overflow_estimate t ~n ~capacity_per_call:c <= target)
        lo hi

  (* --- The admission certificate -------------------------------------

     [fits] asks whether exp (-n I(c)) <= target, with I(c) = sup f and
     f(theta) = theta c - Lambda(theta).  Write L = -log target / n.  The
     certificate decides sup f >= L without finding the maximum:

     - any theta with f(theta) >= L + delta admits;
     - f is concave, so the tangents at lo < theta* < hi are upper bounds
       of f, and the value where they meet bounds sup f from above: if
       it is < L - delta, deny;
     - Newton steps on f' = c - Lambda' shrink [lo, hi]; each step is
       one pass over the levels ([moments]) that yields Lambda, Lambda'
       and Lambda'' together.

     Inside the band where neither test clears its margin, [fits] falls
     back to [overflow_estimate], which runs golden section.  The margins
     below are proven bounds on how far the golden-section verdict can
     sit from the exact sup f, so every verdict equals today's bit for
     bit.

     The proof, in units of u = 2^-53.  Let P = max |log p_i|,
     E = max |e_i|, K the number of levels, D = top - bottom (>= |e_i - c|
     for bottom <= c <= top), and A(theta) = P + theta E + K + 1.  Both
     paths evaluate the same table, so "exact" below means the exact
     f of the stored (e_i, log p_i).

     (a) Rounding of f and f'.  Every term log p_i + theta e_i is off by
         at most 2.01u (|log p_i| + theta |e_i|), and log-sum-exp is
         1-Lipschitz in its terms.  The largest shifted term is exactly
         1, each shifted term's exp has a relative error of at most
         2u (P + theta E) + 2u (exp and log are faithful), the sum adds
         (K - 1) u, and the last three operations round once
         each: the computed f is within about 8.1 u A of the exact one,
         so eps_f = 16 u A.  The same term errors move the tilted mean by
         at most 8.05 u D (P + theta E) + 4u D, and its own products, sums
         and quotient add (2K + 2) u D: eps_d = 16 u D A.  A probe with
         f' > eps_d is a certified lo (theta* above it), one with
         f' < -eps_d a certified hi.  The factor-2 headroom in each bound
         absorbs the roundings of the certificate's own arithmetic on the
         bounds.

     (b) The comparison.  [overflow_estimate] compares the rounded
         exp (-(n I)) with target.  With faithful exp and log, and target
         normal (-log target < 700), I >= L + 8u (L + 1/n) forces
         "fits" and I < L - 8u (L + 1/n) forces "does not fit":
         d_cmp = 8u (L + 1/n).

     (c) Golden section's bracket.  [bracket] stops at hi_g = 2^k with
         k = 0 or decreasing_at (2^(k-1)) false, i.e. f(0.99 x) - f(x)
         <= 2 eps_f(x) at x = 2^(k-1) (or at x = 2^k, when a stale
         hint already sits at the 2^30 cap).  Past a certified hi, -f' >= g,
         the certified slope there, so 0.0099 g x <= 32 u (P + K + 1 + x E):
         x <= max (hi / 0.98, 6500 u (P + K + 1) / g) once
         0.0099 g > 64 u E.  Golden section then probes theta <= hi_g,
         where eps_f <= eps_g = 16 u A(hi_g).

     (d) Golden section's shortfall.  [golden_max] ends with a bracket no
         wider than w = 1e-9 max (1, hi_g) and returns its midpoint.  If
         theta* is inside, the midpoint loses at most (V/2)(w/2)^2, with
         V = D^2 / 4 bounding Lambda'' (a tilted variance).  A comparison
         can go wrong only between probes whose exact values are within
         2 eps_g; by concavity that costs the bracket's maximum at most
         2 eps_g (1 - phi) / (2 phi - 1) < 3.3 eps_g per iteration
         (phi = 0.618..., the golden ratio's conjugate), over
         at most 44 iterations.  A final bracket whose maximum sits at an
         end moved by such a comparison loses at most V w^2 / 4
         + 4.3 eps_g at the midpoint, and a wrong [decreasing_at] at
         hi_g < theta* loses at most 201 eps_g theta* against sup f.  So
         the golden value falls short of sup f by at most
         S = (V/2) w^2 + 400 eps_g max (1, hi), and exceeds it by at most
         eps_g.

     Hence: admit when (max over probes of f - eps_f) >= L + S + eps_g
     + d_cmp; deny when (meeting value + its rounding) + eps_g + d_cmp
     < L.  Both need a certified hi for (c).  A probe whose f' sign is
     uncertain sits within rounding of theta*: its f + eps_f + |f'| times
     the bracket width also bounds sup f.  Everything else falls back:
     c <= mean and c > top (decided without a solve), c = top, a target
     outside (0, 1) or below e^-700, a non-finite moment or table bound,
     theta* beyond 2^29, a certified hi too flat for (c), an uncertain
     probe once a certified hi exists (sup f is then within the band),
     and no verdict after [pass_budget] passes. *)

  let u = epsilon_float /. 2.
  let pass_budget = 48
  let max_theta = 0x1p29

  (* [judge] answers [Stuck] when no later probe can help; [certify]
     then gives up as [Undecided]. *)
  type verdict = Admit | Deny | Undecided | Stuck

  (* One pass at theta = [work.x]: f, f' and Lambda'' into [work].  The
     same two loops as [log_mgf] (f is the golden-section objective bit
     for bit); the weighted sums are shifted by c, so f' and Lambda''
     cancel little near theta*. *)
  let moments t =
    t.mgf_evals <- t.mgf_evals + 1;
    let w = t.work in
    let c = w.c and theta = w.x in
    let m = ref neg_infinity in
    for i = 0 to t.n - 1 do
      let term = t.logp.(i) +. (theta *. t.e.(i)) in
      if term > !m then m := term
    done;
    let m = !m in
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. in
    for i = 0 to t.n - 1 do
      let p = exp (t.logp.(i) +. (theta *. t.e.(i)) -. m) in
      let x = t.e.(i) -. c in
      s0 := !s0 +. p;
      s1 := !s1 +. (p *. x);
      s2 := !s2 +. (p *. x *. x)
    done;
    let mx = !s1 /. !s0 in
    w.f <- (theta *. c) -. (m +. log !s0);
    w.d <- -.mx;
    w.v <- (!s2 /. !s0) -. (mx *. mx)

  (* The bounds below are written out inline: a helper returning a float
     would box it.  [a0] is P + K + 1, so A(theta) = a0 + theta E. *)

  (* File the probe at [work.x] as a certified lo, a certified hi or an
     uncertain ("flat") one, true for flat, and keep its Newton point as
     the next probe's warm start. *)
  let classify t =
    let w = t.work in
    let newton = w.x +. (w.d /. w.v) in
    if newton > 0. && newton <= max_theta then w.hint <- newton;
    let a = w.pmax +. float_of_int t.n +. 1. +. (w.x *. w.emax) in
    let ef = 16. *. u *. a and ed = 16. *. u *. (t.top -. w.bottom) *. a in
    if w.f -. ef > w.best then w.best <- w.f -. ef;
    if w.d > ed then begin
      w.lo <- w.x;
      w.flo <- w.f;
      w.dlo <- w.d;
      false
    end
    else if w.d < -.ed then begin
      w.hi <- w.x;
      w.fhi <- w.f;
      w.dhi <- w.d;
      false
    end
    else begin
      w.flat_x <- w.x;
      w.flat_f <- w.f +. ef;
      w.flat_d <- Float.abs w.d +. ed;
      true
    end

  (* The two tests of the proof, once a certified hi bounds theta*. *)
  let judge t ~n =
    let w = t.work in
    if not (w.hi < infinity) then Undecided
    else begin
      let a0 = w.pmax +. float_of_int t.n +. 1. and e = w.emax in
      let span = t.top -. w.bottom in
      let ah = a0 +. (w.hi *. e) in
      let g = -.w.dhi -. (16. *. u *. span *. ah) in
      if not (0.0099 *. g > 64. *. u *. e) then Stuck
      else begin
        (* (c), (d) and (b). *)
        let x0 = w.hi /. 0.98 and x1 = 6500. *. u *. a0 /. g in
        let hig = 2. *. if x0 > x1 then x0 else x1 in
        let hig = if hig > 1. then hig else 1. in
        let eg = 16. *. u *. (a0 +. (hig *. e)) in
        let wg = 1e-9 *. hig in
        let short =
          (0.125 *. span *. span *. wg *. wg)
          +. (400. *. eg *. if w.hi > 1. then w.hi else 1.)
        in
        let d_cmp = 8. *. u *. (w.l +. (1. /. float_of_int n)) in
        if w.best >= w.l +. short +. eg +. d_cmp then Admit
        else begin
          (* Upper bounds on sup f: the flat probe's, then the tangents'
             value at their meeting point clamped into [lo, hi] (the
             larger tangent at any point bounds the smaller one's
             maximum over the bracket). *)
          let lo0 = if w.lo > 0. then w.lo else 0. in
          let reach =
            let r1 = w.hi -. w.flat_x and r2 = w.flat_x -. lo0 in
            if r1 > r2 then r1 else r2
          in
          let ub = w.flat_f +. (w.flat_d *. reach) in
          let ub =
            if w.lo > neg_infinity then begin
              let sa = w.dlo and sb = -.w.dhi and wd = w.hi -. w.lo in
              let s = (w.fhi -. w.flo +. (sb *. wd)) /. (sa +. sb) in
              let s = if s > wd then wd else if s > 0. then s else 0. in
              let t1 = w.flo +. (sa *. s) and t2 = w.fhi +. (sb *. (wd -. s)) in
              let fm = Float.abs w.flo +. Float.abs w.fhi in
              let sm = sa +. sb in
              let meet =
                (if t1 > t2 then t1 else t2)
                +. (16. *. u *. ah *. (1. +. (span *. wd)))
                +. (4. *. u *. (fm +. (sm *. wd)))
              in
              if meet < ub then meet else ub
            end
            else ub
          in
          if ub +. eg +. d_cmp < w.l then Deny else Undecided
        end
      end
    end

  (* Set [work.x] to the next probe: Newton inside a closed bracket,
     bisecting when the step leaves it, and a doubled Newton step toward
     a missing side.  False when no probe is left to try. *)
  let advance t ~flat =
    let w = t.work in
    let th = w.x in
    let step = w.d /. w.v in
    let newton = th +. step in
    if not (w.hi < infinity) then begin
      let up =
        if flat then
          let a = w.pmax +. float_of_int t.n +. 1. +. (th *. w.emax) in
          th +. (2. *. Float.abs step)
          +. (32. *. u *. (t.top -. w.bottom) *. a /. w.v)
        else th +. step +. step
      in
      let up =
        if up > th && up < infinity then up
        else if th > 0. then 2. *. th
        else 1. /. (t.top -. w.bottom)
      in
      w.x <- (if up > max_theta then max_theta else up);
      th < max_theta
    end
    else if flat then false
    else if not (w.lo > neg_infinity) then begin
      let down = th +. step +. step in
      w.x <- (if down > 0. && down < th then down else 0.5 *. th);
      true
    end
    else begin
      w.x <-
        (if newton > w.lo && newton < w.hi then newton
         else 0.5 *. (w.lo +. w.hi));
      true
    end

  (* The certificate for [work.c] and [work.l] with [n] calls. *)
  let certify t ~n =
    let w = t.work in
    w.lo <- neg_infinity;
    w.hi <- infinity;
    w.best <- neg_infinity;
    w.flat_f <- infinity;
    w.x <- (if w.hint > 0. && w.hint <= max_theta then w.hint else 0.);
    let verdict = ref Undecided and passes = ref 0 in
    let go = ref (Float.is_finite (w.pmax +. w.emax +. w.bottom)) in
    while !go do
      incr passes;
      moments t;
      if Float.is_finite w.f && Float.is_finite w.d then begin
        let flat = classify t in
        verdict := judge t ~n;
        go :=
          !verdict = Undecided && !passes < pass_budget && advance t ~flat
      end
      else go := false
    done;
    if !verdict = Stuck then Undecided else !verdict

  (* The admission predicate.  Its verdict is always the one
     [overflow_estimate] gives; the certificate only spares the
     golden-section solve where its margins allow (see above). *)
  let fits t ~capacity ~target n =
    t.fits_evals <- t.fits_evals + 1;
    n > 0
    &&
    let c = capacity /. float_of_int n in
    let verdict =
      (* c <= mean and c > top need no solve. *)
      if c <= t.mean || c > t.top then Undecided
      else begin
        let lam = -.log target in
        let w = t.work in
        w.c <- c;
        w.l <- lam /. float_of_int n;
        let v =
          if c < t.top && target > 0. && target < 1. && lam < 700. then
            certify t ~n
          else Undecided
        in
        if v = Undecided then t.fallbacks <- t.fallbacks + 1;
        v
      end
    in
    match verdict with
    | Admit -> true
    | Deny -> false
    | Undecided | Stuck -> overflow_estimate t ~n ~capacity_per_call:c <= target

  (* Section VI's test: admit the (calls+1)-th call iff the estimate
     with calls+1 calls meets the target.  [fits] is monotone in n (n
     calls sharing the same capacity overflow more often as n grows) and
     [max_calls] answers the largest fitting n <= [upper_calls], or 0,
     so [calls + 1 <= max_calls] holds exactly when [calls + 1] is in
     range and fits: one probe decides what the search decides. *)
  let admits t ~capacity ~target ~calls =
    assert (capacity >= 0.);
    assert (not t.loading);
    t.mean <= 0.
    || (calls < upper_calls ~capacity ~mean:t.mean
       && fits t ~capacity ~target (calls + 1))

  (* Warm-started admission limit.  [fits] is monotone in n, so
     galloping out from the previous answer and bisecting the resulting
     bracket lands on the same boundary the cold search finds — only the
     *set* of probed n differs, typically 2-3 probes when the system
     drifts by a call or two between decisions. *)
  let max_calls t ~capacity ~target =
    assert (capacity >= 0.);
    assert (not t.loading);
    if t.mean <= 0. then max_int
    else begin
      let fits = fits t ~capacity ~target in
      let upper = upper_calls ~capacity ~mean:t.mean in
      let answer =
        if not (fits 1) then 0
        else if fits upper then upper
        else begin
          (* Bracket [lo, hi] with fits lo and not (fits hi), galloping
             out from the previous answer. *)
          let h = max 1 (min (upper - 1) t.calls_hint) in
          let lo = ref 1 and hi = ref upper in
          if fits h then begin
            lo := h;
            let step = ref 1 in
            let probe = ref (min upper (h + 1)) in
            while !probe < upper && fits !probe do
              lo := !probe;
              step := 2 * !step;
              probe := min upper (h + !step)
            done;
            if !probe < upper then hi := !probe
          end
          else begin
            hi := h;
            let step = ref 1 in
            let probe = ref (max 1 (h - 1)) in
            while !probe > 1 && not (fits !probe) do
              hi := !probe;
              step := 2 * !step;
              probe := max 1 (h - !step)
            done;
            if !probe > 1 then lo := !probe
          end;
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) / 2 in
            if fits mid then lo := mid else hi := mid
          done;
          !lo
        end
      in
      if answer > 0 then t.calls_hint <- answer;
      answer
    end

  type stats = {
    mgf_evals : int;
    fits_evals : int;
    queries : int;
    fallbacks : int;
  }

  let stats (t : t) =
    {
      mgf_evals = t.mgf_evals;
      fits_evals = t.fits_evals;
      queries = t.queries;
      fallbacks = t.fallbacks;
    }
end
