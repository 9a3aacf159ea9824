(* CLI: generate and inspect synthetic multiple time-scale video traces.

   Examples:
     rcbr_trace generate --seed 42 --frames 171000 -o star_wars.trace
     rcbr_trace stats star_wars.trace
     rcbr_trace sigma-rho star_wars.trace --target 1e-6 *)

open Cmdliner
module Trace = Rcbr_traffic.Trace
module Synthetic = Rcbr_traffic.Synthetic
module Sigma_rho = Rcbr_queue.Sigma_rho

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let frames_arg =
  Arg.(
    value
    & opt int Synthetic.default_frames
    & info [ "frames" ] ~docv:"N" ~doc:"Number of frames to generate.")

let output_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")

let generate seed frames output =
  let t = Synthetic.star_wars ~frames ~seed () in
  Trace.save t output;
  Format.printf "wrote %s:@.%a@." output Trace.pp_summary t

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a Star Wars-like synthetic trace.")
    Term.(const generate $ seed_arg $ frames_arg $ output_arg)

let stats file =
  let t = Trace.load file in
  Format.printf "%a@." Trace.pp_summary t;
  let mean = Trace.mean_rate t in
  List.iter
    (fun mult ->
      let run = Trace.sustained_peak t ~threshold:(mult *. mean) in
      Format.printf "longest run >= %.1fx mean: %.2f s@." mult
        (float_of_int run /. Trace.fps t))
    [ 2.; 3.; 4. ]

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print summary statistics of a trace file.")
    Term.(const stats $ trace_file_arg)

let target_arg =
  Arg.(
    value & opt float 1e-6
    & info [ "target" ] ~docv:"LOSS" ~doc:"Bit-loss fraction target.")

let sigma_rho file target =
  let t = Trace.load file in
  let mean = Trace.mean_rate t in
  let buffers =
    [| 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8; 2e8 |]
  in
  Format.printf "buffer_bits  min_rate_bps  rate/mean@.";
  Array.iter
    (fun (b, r) -> Format.printf "%11.0f  %12.0f  %9.3f@." b r (r /. mean))
    (Sigma_rho.curve ~trace:t ~buffers ~target_loss:target)

let sigma_rho_cmd =
  Cmd.v
    (Cmd.info "sigma-rho"
       ~doc:"Minimum drain rate as a function of buffer size (Fig. 5).")
    Term.(const sigma_rho $ trace_file_arg $ target_arg)

(* Parameter validation in the library raises [Invalid_argument] with a
   self-describing message; surface it as a usage error instead of a
   crash. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "rcbr_trace: %s@." msg;
    exit Cmdliner.Cmd.Exit.cli_error

(* --- receding: beam-trellis receding-horizon renegotiation --- *)

module Optimal = Rcbr_core.Optimal
module Beam = Rcbr_core.Beam
module Online = Rcbr_core.Online
module Predictor = Rcbr_core.Predictor
module Schedule = Rcbr_core.Schedule

let receding file seed frames beam_width beam_prior horizon levels cost_ratio
    buffer plan_bound delay_slots every_slot =
  let trace =
    match file with
    | Some f -> Trace.load f
    | None -> Synthetic.star_wars ~frames ~seed ()
  in
  let opt =
    let p = Optimal.default_params ~levels ~buffer ~cost_ratio trace in
    { p with Optimal.constraint_ = Optimal.Buffer_bound plan_bound }
  in
  let prior = Beam.prior_of_spec ~grid:opt.Optimal.grid trace beam_prior in
  let p = Online.default_params in
  let predictor ~initial = Predictor.ar1 ~eta:p.Online.ar_coefficient ~initial in
  let cost s =
    Schedule.cost s ~reneg_cost:cost_ratio ~bandwidth_cost:1.
  in
  let outcome, st =
    or_usage_error (fun () ->
        Online.run_receding ~delay_slots ~buffer ~resolve_every_slot:every_slot
          ~beam_width ~prior p ~opt ~horizon ~predictor trace)
  in
  let baseline = Online.run_custom ~delay_slots ~buffer p ~predictor trace in
  let row label (o : Online.outcome) =
    Format.printf "%-14s  cost %.4e  renegs %4d  lost %.3e  max backlog %8.0f@."
      label (cost o.Online.schedule)
      (Schedule.n_renegotiations o.Online.schedule)
      o.Online.bits_lost o.Online.max_backlog
  in
  Format.printf
    "receding horizon: %d slots ahead, beam %d over %d levels, plan bound \
     %.0f of %.0f bits@."
    horizon beam_width (Rcbr_core.Rate_grid.levels opt.Optimal.grid) plan_bound
    buffer;
  row "receding beam" outcome;
  row "ar1 heuristic" baseline;
  Format.printf
    "windows solved %d (%d infeasible), nodes expanded %d, dropped by beam \
     %d, prior hits %d@."
    st.Online.solves st.Online.infeasible_windows st.Online.expanded
    st.Online.dropped_by_beam st.Online.prior_hits

let receding_cmd =
  let opt_trace_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (generated when omitted).")
  in
  let beam_arg =
    Arg.(
      value & opt int 8
      & info [ "beam" ] ~docv:"K"
          ~doc:"Beam width: trellis states kept per lookahead stage.")
  in
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
  in
  let horizon_arg =
    Arg.(
      value & opt int 12
      & info [ "horizon" ] ~docv:"H" ~doc:"Lookahead window length in slots.")
  in
  let levels_arg =
    Arg.(
      value & opt int 50
      & info [ "levels" ] ~docv:"M" ~doc:"Number of bandwidth levels.")
  in
  let cost_ratio_arg =
    Arg.(
      value & opt float 2e5
      & info [ "cost-ratio" ] ~docv:"ALPHA"
          ~doc:"Renegotiation cost over bandwidth cost (bits).")
  in
  let buffer_arg =
    Arg.(
      value & opt float 300_000.
      & info [ "buffer" ] ~docv:"BITS" ~doc:"Physical end-system buffer.")
  in
  let plan_bound_arg =
    Arg.(
      value & opt float 150_000.
      & info [ "plan-bound" ] ~docv:"BITS"
          ~doc:
            "Planning headroom: lookahead windows are solved against this \
             bound, leaving buffer space for forecast error.")
  in
  let delay_slots_arg =
    Arg.(
      value & opt int 0
      & info [ "delay-slots" ] ~docv:"SLOTS" ~doc:"Signalling round-trip.")
  in
  let every_slot_arg =
    Arg.(
      value & flag
      & info [ "every-slot" ]
          ~doc:
            "Re-solve every slot and trust the solver outright (pure MPC) \
             instead of gating by the buffer thresholds.")
  in
  Cmd.v
    (Cmd.info "receding"
       ~doc:
         "Receding-horizon renegotiation: re-solve a beam-searched trellis \
          over a forecast window and compare against the AR(1) heuristic.")
    Term.(
      const receding $ opt_trace_arg $ seed_arg $ frames_arg $ beam_arg
      $ beam_prior_arg $ horizon_arg $ levels_arg $ cost_ratio_arg $ buffer_arg
      $ plan_bound_arg $ delay_slots_arg $ every_slot_arg)

(* --- stream: a live NIU over a faulty signalling plane --- *)

module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path
module Niu = Rcbr_signal.Niu
module Plan = Rcbr_fault.Plan
module Injector = Rcbr_fault.Injector

let crash_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some hop; Some at_slot; Some recover_slot ] ->
        Ok { Plan.hop; at_slot; recover_slot }
    | _ -> Error (`Msg "expected HOP:AT:RECOVER (three integers)")
  in
  let print ppf c =
    Format.fprintf ppf "%d:%d:%d" c.Plan.hop c.Plan.at_slot c.Plan.recover_slot
  in
  Arg.conv (parse, print)

let degrade_conv =
  let parse = function
    | "ride" -> Ok Niu.Ride_out
    | "settle" -> Ok Niu.Settle
    | s -> (
        match String.split_on_char ':' s with
        | [ "scale"; q ] -> (
            match float_of_string_opt q with
            | Some q when q >= 0. && q <= 1. -> Ok (Niu.Scale q)
            | _ -> Error (`Msg "scale fraction must be a float in [0,1]"))
        | _ -> Error (`Msg "expected ride, settle or scale:Q"))
  in
  let print ppf = function
    | Niu.Ride_out -> Format.pp_print_string ppf "ride"
    | Niu.Settle -> Format.pp_print_string ppf "settle"
    | Niu.Scale q -> Format.fprintf ppf "scale:%g" q
  in
  Arg.conv (parse, print)

let stream file seed frames hops capacity_mult drop duplicate reorder delay_prob
    max_extra crashes timeout_slots max_retx backoff jitter resync degrade
    delay_slots retry_slots buffer fault_seed =
  let trace =
    match file with
    | Some f -> Trace.load f
    | None -> Synthetic.star_wars ~frames ~seed ()
  in
  let mean = Trace.mean_rate trace in
  let capacity = capacity_mult *. mean in
  let ports = List.init hops (fun _ -> Port.create ~capacity ()) in
  let online = Rcbr_core.Online.default_params in
  let g = online.Rcbr_core.Online.granularity in
  let first = Trace.frame trace 0 /. Trace.slot_duration trace in
  let initial = g *. Float.max 1. (Float.ceil (first /. g)) in
  let path = Path.create_exn ports ~vci:1 ~initial_rate:initial in
  let plan =
    or_usage_error (fun () ->
        Plan.uniform ~drop ~duplicate ~reorder ~delay:delay_prob
          ~max_extra_slots:max_extra ~crashes ~hops ~seed:fault_seed ())
  in
  let faults =
    {
      Niu.plan;
      timeout_slots;
      max_retransmits = max_retx;
      backoff;
      jitter_slots = jitter;
      resync_slots = resync;
      degrade;
    }
  in
  let params =
    {
      Niu.online;
      buffer;
      delay_slots;
      retry_slots = (if retry_slots <= 0 then None else Some retry_slots);
      faults;
    }
  in
  Format.printf
    "%d hops at %.0f kb/s each (%.1fx trace mean), %d slots, buffer %.0f kb@."
    hops (capacity /. 1e3) capacity_mult (Trace.length trace) (buffer /. 1e3);
  let r = or_usage_error (fun () -> Niu.stream params ~path trace) in
  Format.printf
    "@[<v>bits offered:   %.3e@,\
     bits lost:      %.3e (%.4f%%)@,\
     max backlog:    %.0f bits@,\
     attempts:       %d@,\
     denials:        %d@,\
     mean reserved:  %.0f b/s@]@."
    r.Niu.bits_offered r.Niu.bits_lost
    (if r.Niu.bits_offered > 0. then 100. *. r.Niu.bits_lost /. r.Niu.bits_offered
     else 0.)
    r.Niu.max_backlog r.Niu.attempts r.Niu.failures r.Niu.mean_reserved;
  let f = r.Niu.faults in
  Format.printf
    "@[<v>%a@,\
     retransmits:    %d (worst per request %d)@,\
     timeouts:       %d@,\
     give-ups:       %d@,\
     resyncs:        %d@,\
     crashes:        %d (%d recoveries)@,\
     degraded slots: %d@,\
     bits scaled:    %.3e@,\
     invariant violations: %d@,\
     final drift:    %.3g b/s@]@."
    Injector.pp_totals f.Niu.cells f.Niu.retransmits f.Niu.worst_retransmits
    f.Niu.timeouts f.Niu.give_ups f.Niu.resyncs f.Niu.crashes
    f.Niu.recoveries f.Niu.degraded_slots f.Niu.bits_scaled
    f.Niu.invariant_violations f.Niu.final_drift;
  Path.teardown path;
  let leak =
    List.fold_left
      (fun acc p -> Float.max acc (Float.abs (Port.reserved p)))
      0. ports
  in
  Format.printf "post-teardown residual reservation: %.3g b/s@." leak

let stream_cmd =
  let opt_trace_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (generated when omitted).")
  in
  let hops_arg =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"N" ~doc:"Path length.")
  in
  let capacity_arg =
    Arg.(
      value & opt float 4.
      & info [ "capacity-mult" ] ~docv:"K"
          ~doc:"Per-hop capacity as a multiple of the trace mean rate.")
  in
  let prob name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)
  in
  let drop_arg = prob "drop" "Per-hop RM-cell drop probability." in
  let duplicate_arg = prob "duplicate" "Per-hop duplication probability." in
  let reorder_arg = prob "reorder" "Per-hop reordering probability." in
  let delay_prob_arg = prob "delay-prob" "Per-hop queueing-delay probability." in
  let max_extra_arg =
    Arg.(
      value & opt int 4
      & info [ "max-extra" ] ~docv:"SLOTS" ~doc:"Worst extra delay in slots.")
  in
  let crash_arg =
    Arg.(
      value & opt_all crash_conv []
      & info [ "crash" ] ~docv:"HOP:AT:RECOVER"
          ~doc:"Crash window for a hop, in slots (repeatable).")
  in
  let timeout_arg =
    Arg.(
      value & opt int 8
      & info [ "timeout-slots" ] ~docv:"SLOTS"
          ~doc:"Slots without a response before retransmitting.")
  in
  let max_retx_arg =
    Arg.(
      value & opt int 6
      & info [ "max-retx" ] ~docv:"N" ~doc:"Retransmissions before giving up.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 2.
      & info [ "backoff" ] ~docv:"X" ~doc:"Timeout multiplier per retry.")
  in
  let jitter_arg =
    Arg.(
      value & opt int 2
      & info [ "jitter" ] ~docv:"SLOTS" ~doc:"Uniform extra timeout jitter.")
  in
  let resync_arg =
    Arg.(
      value & opt int 120
      & info [ "resync" ] ~docv:"SLOTS"
          ~doc:"Absolute-rate resync period (0 disables).")
  in
  let degrade_arg =
    Arg.(
      value
      & opt degrade_conv Niu.Settle
      & info [ "degrade" ] ~docv:"POLICY"
          ~doc:"Degradation policy: ride, settle, or scale:Q.")
  in
  let delay_slots_arg =
    Arg.(
      value & opt int 0
      & info [ "delay-slots" ] ~docv:"SLOTS" ~doc:"Signalling round-trip.")
  in
  let retry_arg =
    Arg.(
      value & opt int 24
      & info [ "retry-slots" ] ~docv:"SLOTS"
          ~doc:"Re-issue a denied request after this many slots (0: never).")
  in
  let buffer_arg =
    Arg.(
      value & opt float 300_000.
      & info [ "buffer" ] ~docv:"BITS" ~doc:"End-system buffer size.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Root of all fault randomness.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream a live source across a faulty multi-hop signalling plane \
          and report the NIU's resilience metrics.")
    Term.(
      const stream $ opt_trace_arg $ seed_arg $ frames_arg $ hops_arg
      $ capacity_arg $ drop_arg $ duplicate_arg $ reorder_arg $ delay_prob_arg
      $ max_extra_arg $ crash_arg $ timeout_arg $ max_retx_arg $ backoff_arg
      $ jitter_arg $ resync_arg $ degrade_arg $ delay_slots_arg $ retry_arg
      $ buffer_arg $ fault_seed_arg)

let () =
  let info =
    Cmd.info "rcbr_trace" ~version:"1.0"
      ~doc:"Synthetic multiple time-scale video traces."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; stats_cmd; sigma_rho_cmd; receding_cmd; stream_cmd ]))
