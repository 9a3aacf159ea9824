(* CLI: compute RCBR renegotiation schedules for a trace.

   Examples:
     rcbr_sched optimal star_wars.trace --cost-ratio 2e5 --buffer 300000
     rcbr_sched online star_wars.trace --granularity 100000
     rcbr_sched optimal star_wars.trace --delay-slots 24 --segments *)

open Cmdliner
module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal
module Beam = Rcbr_core.Beam
module Online = Rcbr_core.Online
module Fluid = Rcbr_queue.Fluid

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")

let buffer_arg =
  Arg.(
    value & opt float 300_000.
    & info [ "buffer" ] ~docv:"BITS" ~doc:"End-system buffer bound in bits.")

let segments_flag =
  Arg.(
    value & flag
    & info [ "segments" ] ~doc:"Also print every (slot, rate) segment.")

let report ~trace ~buffer ~segments sched =
  Format.printf "%a@." Schedule.pp sched;
  Format.printf "bandwidth efficiency: %.4f@."
    (Schedule.bandwidth_efficiency sched ~trace);
  let r = Schedule.simulate_buffer sched ~trace ~capacity:buffer in
  Format.printf "buffer simulation: loss %.3g, peak backlog %.0f bits@."
    (Fluid.loss_fraction r) r.Fluid.max_backlog;
  if segments then
    Array.iter
      (fun s ->
        Format.printf "%8d  %12.0f@." s.Schedule.start_slot s.Schedule.rate)
      (Schedule.segments sched)

let optimal file cost_ratio buffer levels delay_slots beam beam_prior segments =
  let trace = Trace.load file in
  let params = Optimal.default_params ~levels ~buffer ~cost_ratio trace in
  let params =
    match delay_slots with
    | None -> params
    | Some d -> { params with Optimal.constraint_ = Optimal.Delay_bound d }
  in
  let sched =
    match beam with
    | None ->
        let sched, stats = Optimal.solve_with_stats params trace in
        Format.printf
          "trellis: %d slots, %d nodes expanded, peak frontier %d, pruned %d \
           (lemma) + %d (cap)@."
          stats.Optimal.slots stats.Optimal.expanded stats.Optimal.max_frontier
          stats.Optimal.pruned_by_lemma stats.Optimal.pruned_by_cap;
        sched
    | Some beam_width ->
        let prior =
          Beam.prior_of_spec ~grid:params.Optimal.grid trace beam_prior
        in
        let sched, st =
          Beam.solve_with_stats ~beam_width ~prior params trace
        in
        Format.printf
          "beam trellis (width %d): %d slots, %d nodes expanded, peak \
           frontier %d, kept %d, dropped by beam %d, prior hits %d@."
          beam_width st.Beam.base.Optimal.slots st.Beam.base.Optimal.expanded
          st.Beam.base.Optimal.max_frontier st.Beam.kept st.Beam.dropped_by_beam
          st.Beam.prior_hits;
        sched
  in
  report ~trace ~buffer ~segments sched

let cost_ratio_arg =
  Arg.(
    value & opt float 2e5
    & info [ "cost-ratio" ] ~docv:"ALPHA"
        ~doc:"Renegotiation cost over bandwidth cost (bits).")

let levels_arg =
  Arg.(
    value & opt int 20
    & info [ "levels" ] ~docv:"M" ~doc:"Number of bandwidth levels.")

let delay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "delay-slots" ] ~docv:"D"
        ~doc:"Use a delay bound of D slots instead of the buffer bound.")

let beam_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "beam" ] ~docv:"K"
        ~doc:
          "Beam width: keep only the K best trellis states per stage \
           (default: exact solve).")

let beam_prior_arg =
  Arg.(
    value
    & opt
        (conv' (Beam.prior_spec_of_string, Beam.pp_prior_spec))
        Beam.Prior_trace
    & info [ "beam-prior" ] ~docv:"PRIOR"
        ~doc:
          "Beam ranking prior: trace (level-transition histograms of the \
           input trace), chain (the calibrated Star Wars Markov model), or \
           uniform.")

let optimal_cmd =
  Cmd.v
    (Cmd.info "optimal" ~doc:"Optimal offline schedule (Viterbi trellis).")
    Term.(
      const optimal $ trace_file_arg $ cost_ratio_arg $ buffer_arg $ levels_arg
      $ delay_arg $ beam_arg $ beam_prior_arg $ segments_flag)

let online file granularity b_low b_high flush buffer segments =
  let trace = Trace.load file in
  let params =
    {
      Online.default_params with
      Online.granularity;
      b_low;
      b_high;
      flush_slots = flush;
    }
  in
  let o = Online.run params trace in
  Format.printf "online heuristic: peak backlog %.0f bits@." o.Online.max_backlog;
  report ~trace ~buffer ~segments o.Online.schedule

let granularity_arg =
  Arg.(
    value & opt float 100_000.
    & info [ "granularity" ] ~docv:"DELTA" ~doc:"Bandwidth granularity (b/s).")

let b_low_arg =
  Arg.(
    value & opt float 10_000.
    & info [ "b-low" ] ~docv:"BITS" ~doc:"Lower buffer threshold.")

let b_high_arg =
  Arg.(
    value & opt float 150_000.
    & info [ "b-high" ] ~docv:"BITS" ~doc:"Upper buffer threshold.")

let flush_arg =
  Arg.(
    value & opt int 5
    & info [ "flush-slots" ] ~docv:"T" ~doc:"Flush time constant in slots.")

let online_cmd =
  Cmd.v
    (Cmd.info "online" ~doc:"Causal AR(1) + threshold heuristic.")
    Term.(
      const online $ trace_file_arg $ granularity_arg $ b_low_arg $ b_high_arg
      $ flush_arg $ buffer_arg $ segments_flag)

let () =
  let info =
    Cmd.info "rcbr_sched" ~version:"1.0"
      ~doc:"RCBR renegotiation schedule computation."
  in
  exit (Cmd.eval (Cmd.group info [ optimal_cmd; online_cmd ]))
