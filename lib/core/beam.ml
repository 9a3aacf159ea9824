module Trace = Rcbr_traffic.Trace
module Histogram = Rcbr_util.Histogram
module Chain = Rcbr_markov.Chain

type prior =
  | Uniform
  | Table of {
      levels : int;
      init : Histogram.t;
      trans : Histogram.t array;
    }

(* Smoothing floor for unseen transitions: a path through an unobserved
   transition pays log(1e-9) ~ -20.7 nats, steep but finite, so the beam
   can still follow the traffic off the prior's support. *)
let log_floor = 1e-9

let level_of grid tau trace t =
  Rate_grid.index_up grid (Trace.frame trace t /. tau)

let of_trace ~grid trace =
  let m = Rate_grid.levels grid in
  let tau = Trace.slot_duration trace in
  let init = Histogram.create ~levels:m in
  let trans = Array.init m (fun _ -> Histogram.create ~levels:m) in
  let n = Trace.length trace in
  let prev = ref (level_of grid tau trace 0) in
  Histogram.add init !prev 1.;
  for t = 1 to n - 1 do
    let l = level_of grid tau trace t in
    Histogram.add trans.(!prev) l 1.;
    Histogram.add init l 1.;
    prev := l
  done;
  Table { levels = m; init; trans }

let of_chain ~grid ~rates chain =
  let m = Rate_grid.levels grid in
  let ns = Chain.n_states chain in
  if Array.length rates <> ns then
    invalid_arg "Beam.of_chain: rates length <> chain states";
  let pi = Chain.stationary chain in
  let lvl = Array.map (Rate_grid.index_up grid) rates in
  let init = Histogram.create ~levels:m in
  let trans = Array.init m (fun _ -> Histogram.create ~levels:m) in
  for s = 0 to ns - 1 do
    Histogram.add init lvl.(s) pi.(s);
    for s' = 0 to ns - 1 do
      let p = pi.(s) *. Chain.prob chain s s' in
      if p > 0. then Histogram.add trans.(lvl.(s)) lvl.(s') p
    done
  done;
  Table { levels = m; init; trans }

let compile ~grid ~beam_width ~prior_weight prior =
  if beam_width < 1 then invalid_arg "Beam.compile: beam_width < 1";
  let m = Rate_grid.levels grid in
  match prior with
  | Uniform ->
      (* Every transition equally likely: each stage-t node carries the
         same cumulative log prior, so the ranking degenerates to plain
         path weight and nothing counts as a prior hit. *)
      let u = -.Float.log (float_of_int m) in
      {
        Optimal.width = beam_width;
        log_init = Array.make m u;
        log_trans = Array.init m (fun _ -> Array.make m u);
        observed = Array.init m (fun _ -> Array.make m false);
        prior_weight;
      }
  | Table { levels; init; trans } ->
      if levels <> m then
        invalid_arg "Beam.compile: prior trained on a different grid size";
      {
        Optimal.width = beam_width;
        log_init =
          Array.init m (fun l -> Histogram.log_mass ~floor:log_floor init l);
        log_trans =
          Array.init m (fun a ->
              Array.init m (fun b ->
                  Histogram.log_mass ~floor:log_floor trans.(a) b));
        observed =
          Array.init m (fun a ->
              Array.init m (fun b -> Histogram.weight trans.(a) b > 0.));
        prior_weight;
      }

let default_prior_weight params trace =
  (* 0.3 nats of improbability per mean slot of allocated bandwidth:
     strong enough to steer ranking between near-equal-cost paths, too
     weak to override a clear cost advantage.  At full strength the
     floor penalty on prior-unseen transitions (~20.7 nats) dwarfs the
     renegotiation cost and the beam over-tracks the training trace;
     the 0.3 calibration is measured in EXPERIMENTS.md (beam). *)
  0.3 *. params.Optimal.bandwidth_cost *. Trace.mean_rate trace
  *. Trace.slot_duration trace

type stats = {
  base : Optimal.stats;
  kept : int;
  dropped_by_beam : int;
  prior_hits : int;
}

let solve_with_stats ?lemma_pruning ?buffer_quantum ?frontier_cap ?prior_weight
    ?start_level ~beam_width ~prior params trace =
  let prior_weight =
    match prior_weight with
    | Some w -> w
    | None -> default_prior_weight params trace
  in
  let beam = compile ~grid:params.Optimal.grid ~beam_width ~prior_weight prior in
  let schedule, base, c =
    Optimal.solve_raw ?lemma_pruning ?buffer_quantum ?frontier_cap ~beam
      ?start_level params trace
  in
  ( schedule,
    {
      base;
      kept = c.Optimal.kept;
      dropped_by_beam = c.Optimal.dropped_by_beam;
      prior_hits = c.Optimal.prior_hits;
    } )
