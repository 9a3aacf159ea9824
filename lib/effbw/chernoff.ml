module Numeric = Rcbr_util.Numeric

type marginal = (float * float) array

let validate m =
  if Array.length m = 0 then invalid_arg "Chernoff: empty marginal";
  let total = ref 0. in
  Array.iter
    (fun (p, _) ->
      if p < 0. then invalid_arg "Chernoff: negative probability";
      total := !total +. p)
    m;
  if Float.abs (!total -. 1.) > 1e-6 then
    invalid_arg "Chernoff: probabilities do not sum to 1"

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

let capacity_for_target ?(tol = 1e-6) m ~n ~target =
  assert (target > 0. && target < 1.);
  let lo = mean m and hi = max_level m in
  if overflow_estimate m ~n ~capacity_per_call:lo <= target then lo
  else
    Numeric.find_min_such_that ~tol
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
    (* Instrumentation. *)
    mutable mgf_evals : int;
    mutable fits_evals : int;
    mutable queries : int;
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
      mgf_evals = 0;
      fits_evals = 0;
      queries = 0;
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
    t.top <- !top

  let set_marginal t m =
    reset t;
    Array.iter (fun (p, e) -> if p > 0. then push_log t ~level:e ~logp:(log p)) m;
    t.loading <- false;
    (* Mean and max over the raw marginal, matching the cold functions
       bit for bit (p = 0 entries add an exact 0.). *)
    t.mean <- mean m;
    t.top <- max_level m

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
  let mean t = t.mean
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

  let capacity_for_target ?(tol = 1e-6) t ~n ~target =
    assert (target > 0. && target < 1.);
    let lo = t.mean and hi = t.top in
    if overflow_estimate t ~n ~capacity_per_call:lo <= target then lo
    else
      Numeric.find_min_such_that ~tol
        ~pred:(fun c -> overflow_estimate t ~n ~capacity_per_call:c <= target)
        lo hi

  (* The admission predicate, evaluated by exactly the same code as the
     cold search's [fits]. *)
  let fits t ~capacity ~target n =
    t.fits_evals <- t.fits_evals + 1;
    n > 0
    && overflow_estimate t ~n ~capacity_per_call:(capacity /. float_of_int n)
       <= target

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

  type stats = { mgf_evals : int; fits_evals : int; queries : int }

  let stats (t : t) =
    { mgf_evals = t.mgf_evals; fits_evals = t.fits_evals; queries = t.queries }
end
