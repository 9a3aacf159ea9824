(* CLI: statistical multiplexing gain comparison across the three Fig. 3
   scenarios (static CBR, shared buffer, RCBR).

   Examples:
     rcbr_smg --frames 20000 --streams 1,5,20,100 --target 1e-6
     rcbr_smg --chernoff                  # add the formula (11) table
     rcbr_smg --beam 16 --beam-prior trace  # beam-searched reference
                                            # schedule on fine grids *)

open Cmdliner
module Trace = Rcbr_traffic.Trace
module Optimal = Rcbr_core.Optimal
module Beam = Rcbr_core.Beam
module Schedule = Rcbr_core.Schedule
module Smg = Rcbr_sim.Smg
module Chernoff = Rcbr_effbw.Chernoff

let run seed frames cost_ratio buffer target replications streams jobs chernoff
    beam beam_prior =
  (* Ctrl-C mid-sweep: flush whatever rows are already printed so the
     partial table survives, then exit with the interrupt convention. *)
  Rcbr_util.Interrupt.install_exit
    ~on_signal:(fun _ ->
      Format.pp_print_flush Format.std_formatter ();
      prerr_endline "rcbr_smg: interrupted, partial output flushed")
    ();
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames ~seed () in
  let mean = Trace.mean_rate trace in
  Format.printf "trace: %d frames, mean %.0f kb/s@." frames (mean /. 1e3);
  let params = Optimal.default_params ~buffer ~cost_ratio trace in
  let schedule =
    match beam with
    | None -> Optimal.solve params trace
    | Some beam_width ->
        let prior =
          Beam.prior_of_spec ~grid:params.Optimal.grid trace beam_prior
        in
        let s, st = Beam.solve_with_stats ~beam_width ~prior params trace in
        Format.printf
          "beam width %d: %d nodes expanded, dropped %d, prior hits %d@."
          beam_width st.Beam.base.Optimal.expanded st.Beam.dropped_by_beam
          st.Beam.prior_hits;
        s
  in
  Format.printf "schedule: %d renegotiations, efficiency %.4f@."
    (Schedule.n_renegotiations schedule)
    (Schedule.bandwidth_efficiency schedule ~trace);
  let cfg =
    { Smg.trace; schedule; buffer; target_loss = target; replications; seed }
  in
  Rcbr_util.Pool.with_pool ?jobs @@ fun pool ->
  let pool = if Rcbr_util.Pool.jobs pool <= 1 then None else Some pool in
  let cbr = Smg.min_capacity_cbr cfg in
  (* Compute the whole sweep before printing: the rows are then
     byte-identical for every --jobs value. *)
  let shared = Smg.min_capacities_shared ?pool cfg ~ns:streams in
  let rcbr = Smg.min_capacities_rcbr ?pool cfg ~ns:streams in
  Format.printf "@.%6s  %10s  %10s  %10s  (capacity per stream / mean)@." "n"
    "CBR" "shared" "RCBR";
  List.iter2
    (fun n (shared, rcbr) ->
      Format.printf "%6d  %10.3f  %10.3f  %10.3f@." n (cbr /. mean)
        (shared /. mean) (rcbr /. mean))
    streams
    (List.combine shared rcbr);
  Format.printf "@.RCBR asymptote (n -> inf): %.3f x mean@."
    (Smg.asymptotic_rcbr_capacity cfg /. mean);
  if chernoff then begin
    (* Chernoff counterpart of the sweep (formula (11)): one
       warm-started solver over the schedule marginal serves every n,
       instead of a cold search per row. *)
    let solver = Chernoff.Solver.of_marginal (Schedule.marginal schedule) in
    Format.printf
      "@.Chernoff estimate over the schedule marginal (target %.0e):@." target;
    Format.printf "%6s  %14s  %22s@." "n" "capacity/mean"
      "admissible on sim link";
    List.iter2
      (fun n rcbr_capacity ->
        let c = Chernoff.Solver.capacity_for_target solver ~n ~target in
        (* How many calls the Chernoff rule would admit on the link the
           simulated sweep sized for n streams. *)
        let calls =
          Chernoff.Solver.max_calls solver
            ~capacity:(rcbr_capacity *. float_of_int n)
            ~target
        in
        Format.printf "%6d  %14.3f  %22d@." n (c /. mean) calls)
      streams rcbr;
    let st = Chernoff.Solver.stats solver in
    Format.printf
      "(solver: %d log-MGF evals, %d fit probes (%d fallbacks), %d queries)@."
      st.Chernoff.Solver.mgf_evals st.Chernoff.Solver.fits_evals
      st.Chernoff.Solver.fallbacks st.Chernoff.Solver.queries
  end

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the capacity searches (default: cores - 1; 1 = \
           sequential).  Results are identical for every value.")

let frames_arg =
  Arg.(value & opt int 20_000 & info [ "frames" ] ~docv:"N" ~doc:"Trace length.")

let cost_ratio_arg =
  Arg.(value & opt float 2e5 & info [ "cost-ratio" ] ~docv:"ALPHA")

let buffer_arg = Arg.(value & opt float 300_000. & info [ "buffer" ] ~docv:"BITS")
let target_arg = Arg.(value & opt float 1e-6 & info [ "target" ] ~docv:"LOSS")

let replications_arg =
  Arg.(value & opt int 3 & info [ "replications" ] ~docv:"R")

let streams_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 5; 10; 20; 50; 100 ]
    & info [ "streams" ] ~docv:"N1,N2,..." ~doc:"Stream counts to evaluate.")

let chernoff_arg =
  Arg.(
    value & flag
    & info [ "chernoff" ]
        ~doc:
          "Also print the Chernoff capacity-per-stream table over the \
           schedule marginal, computed with one shared warm-started solver.")

let beam_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "beam" ] ~docv:"K"
        ~doc:
          "Solve the reference schedule with a beam-searched trellis keeping \
           K states per stage (default: exact solve).")

let beam_prior_arg =
  Arg.(
    value
    & opt
        (conv' (Beam.prior_spec_of_string, Beam.pp_prior_spec))
        Beam.Prior_trace
    & info [ "beam-prior" ] ~docv:"PRIOR"
        ~doc:
          "Beam ranking prior: trace (level-transition histograms of the \
           generated trace), chain (the calibrated Star Wars Markov model), \
           or uniform.")

let () =
  let info =
    Cmd.info "rcbr_smg" ~version:"1.0"
      ~doc:"Statistical multiplexing gain of RCBR vs CBR vs shared buffering."
  in
  let term =
    Term.(
      const run $ seed_arg $ frames_arg $ cost_ratio_arg $ buffer_arg
      $ target_arg $ replications_arg $ streams_arg $ jobs_arg $ chernoff_arg
      $ beam_arg $ beam_prior_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
