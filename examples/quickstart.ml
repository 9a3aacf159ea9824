(* Quickstart: the RCBR workflow in one page.

   Generate a bursty video workload, compute its optimal renegotiation
   schedule, and check that a 300 kb end-system buffer carries it
   without loss while reserving barely more than the mean rate.

   Run with:  dune exec examples/quickstart.exe *)

module Trace = Rcbr_traffic.Trace
module Synthetic = Rcbr_traffic.Synthetic
module Optimal = Rcbr_core.Optimal
module Schedule = Rcbr_core.Schedule
module Fluid = Rcbr_queue.Fluid

let () =
  (* 1. A 10-minute synthetic MPEG-like source (deterministic seed). *)
  let trace = Synthetic.star_wars ~frames:14_400 ~seed:7 () in
  Format.printf "--- workload ---@.%a@.@." Trace.pp_summary trace;

  (* 2. The optimal renegotiation schedule for a 300 kb buffer.  The
     cost ratio alpha = K/c prices one renegotiation like 200 kb of
     reserved bandwidth; larger alpha means fewer renegotiations. *)
  let buffer = 300_000. in
  let params = Optimal.default_params ~buffer ~cost_ratio:2e5 trace in
  let schedule = Optimal.solve params trace in
  Format.printf "--- RCBR schedule ---@.%a@." Schedule.pp schedule;
  Format.printf "bandwidth efficiency: %.2f%%@.@."
    (100. *. Schedule.bandwidth_efficiency schedule ~trace);

  (* 3. Replay the trace through the buffer drained by the schedule. *)
  let result = Schedule.simulate_buffer schedule ~trace ~capacity:buffer in
  Format.printf "--- verification ---@.";
  Format.printf "bits lost: %.0f (of %.3g offered)@." result.Fluid.bits_lost
    result.Fluid.bits_offered;
  Format.printf "peak backlog: %.0f bits (buffer %.0f)@."
    result.Fluid.max_backlog buffer;

  (* 4. Contrast with a static CBR reservation: to lose nothing with
     the same buffer, a one-shot reservation must run near the peak. *)
  let static_rate =
    Rcbr_queue.Sigma_rho.min_rate ~trace ~buffer ~target_loss:0.
  in
  Format.printf "@.--- static CBR comparison ---@.";
  Format.printf "static CBR needs %.0f kb/s = %.1fx the mean;@."
    (static_rate /. 1e3)
    (static_rate /. Trace.mean_rate trace);
  Format.printf "RCBR reserves %.0f kb/s = %.2fx the mean, renegotiating every %.1f s@."
    (Schedule.mean_rate schedule /. 1e3)
    (Schedule.mean_rate schedule /. Trace.mean_rate trace)
    (Schedule.mean_renegotiation_interval schedule)
