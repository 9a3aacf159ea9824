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

type prior_spec = Prior_trace | Prior_chain | Prior_uniform

let prior_spec_of_string = function
  | "trace" -> Ok Prior_trace
  | "chain" -> Ok Prior_chain
  | "uniform" -> Ok Prior_uniform
  | s -> Error (Printf.sprintf "unknown prior %S (trace|chain|uniform)" s)

let pp_prior_spec ppf k =
  Format.pp_print_string ppf
    (match k with
    | Prior_trace -> "trace"
    | Prior_chain -> "chain"
    | Prior_uniform -> "uniform")

let prior_of_spec ~grid trace = function
  | Prior_uniform -> Uniform
  | Prior_trace -> of_trace ~grid trace
  | Prior_chain ->
      (* The calibrated multiple time-scale model behind the synthetic
         generator, flattened to one chain; per-state rates are
         data/slot, scaled by the trace's fps to b/s. *)
      let module Synthetic = Rcbr_traffic.Synthetic in
      let module Modulated = Rcbr_markov.Modulated in
      let flat =
        Rcbr_markov.Multiscale.flatten
          (Synthetic.to_multiscale Synthetic.star_wars_params)
      in
      let rates =
        Array.map (fun r -> r *. Trace.fps trace) (Modulated.rates flat)
      in
      of_chain ~grid ~rates (Modulated.chain flat)

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
        log_init = Array.init m (fun l -> Histogram.log_mass init l);
        log_trans =
          Array.init m (fun a ->
              Array.init m (fun b -> Histogram.log_mass trans.(a) b));
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

let solve_with_stats ~beam_width ~prior params trace =
  let prior_weight = default_prior_weight params trace in
  let beam = compile ~grid:params.Optimal.grid ~beam_width ~prior_weight prior in
  let schedule, base, c = Optimal.solve_raw ~beam params trace in
  ( schedule,
    {
      base;
      kept = c.Optimal.kept;
      dropped_by_beam = c.Optimal.dropped_by_beam;
      prior_hits = c.Optimal.prior_hits;
    } )
