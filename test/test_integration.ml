(* End-to-end integration tests: the complete RCBR pipeline, from
   synthetic traffic through scheduling, signaling, admission and the
   headline claims of the paper (in miniature). *)

module Trace = Rcbr_traffic.Trace
module Synthetic = Rcbr_traffic.Synthetic
module Sigma_rho = Rcbr_queue.Sigma_rho
module Fluid = Rcbr_queue.Fluid
module Schedule = Rcbr_core.Schedule
module Optimal = Rcbr_core.Optimal
module Online = Rcbr_core.Online
module Eb = Rcbr_effbw.Effective_bandwidth
module Chernoff = Rcbr_effbw.Chernoff
module Multiscale = Rcbr_markov.Multiscale
module Modulated = Rcbr_markov.Modulated
module Smg = Rcbr_sim.Smg
module Mbac = Rcbr_sim.Mbac
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path

let trace = Synthetic.star_wars ~frames:8_000 ~seed:100 ()
let buffer = 300_000.
let params = Optimal.default_params ~buffer ~cost_ratio:2e5 trace
let schedule = Optimal.solve params trace

(* 1. RCBR needs a tiny buffer where static CBR at near-mean rate needs
   an enormous one (the paper's introduction headline). *)
let test_small_buffer_vs_static () =
  let mean = Trace.mean_rate trace in
  (* Static service at 5% above the mean: how much buffer? *)
  let static_buffer =
    Sigma_rho.min_buffer ~trace ~rate:(1.05 *. mean) ~target_loss:1e-6 ()
  in
  Alcotest.(check bool) "static service needs orders of magnitude more" true
    (static_buffer > 20. *. buffer);
  (* RCBR with a 300 kb buffer loses nothing and reserves ~ the mean. *)
  let r = Schedule.simulate_buffer schedule ~trace ~capacity:buffer in
  Alcotest.(check bool) "RCBR loses nothing" true (Float.equal r.Fluid.bits_lost 0.);
  Alcotest.(check bool) "RCBR reserves near the mean" true
    (Schedule.mean_rate schedule < 1.15 *. mean)

(* 2. The offline optimum dominates the online heuristic on the
   efficiency/renegotiation-interval tradeoff (Fig. 2's gap). *)
let test_offline_beats_online () =
  let online = Online.run Online.default_params trace in
  let eff_opt = Schedule.bandwidth_efficiency schedule ~trace in
  let eff_online =
    Schedule.bandwidth_efficiency online.Online.schedule ~trace
  in
  let interval_opt = Schedule.mean_renegotiation_interval schedule in
  let interval_online =
    Schedule.mean_renegotiation_interval online.Online.schedule
  in
  (* The optimum renegotiates less often AND serves less bandwidth. *)
  Alcotest.(check bool) "longer intervals" true (interval_opt > interval_online);
  Alcotest.(check bool) "comparable or better efficiency" true
    (eff_opt >= eff_online -. 0.02)

(* 3. Analysis versus simulation: formula (9) predicts the simulated
   equivalent bandwidth of the multiscale model. *)
let test_formula9_predicts_simulation () =
  let ms = Multiscale.fig4_example () in
  let b = 30. and target = 1e-3 in
  let predicted = Eb.multiscale_equivalent_bandwidth ms ~buffer:b ~target_loss:target in
  (* Simulate the flattened chain through a buffer at that rate: the
     loss must be at or below target (the estimate is asymptotically
     tight but conservative for finite runs). *)
  let flat = Multiscale.flatten ms in
  let rng = Rcbr_util.Rng.create 5 in
  let data = Modulated.simulate flat rng ~steps:400_000 () in
  let t = Trace.create ~fps:1. data in
  let r = Fluid.run_constant ~capacity:b ~rate:predicted t in
  Alcotest.(check bool) "loss below target at predicted rate" true
    (Fluid.loss_fraction r <= target);
  (* And the prediction is not trivially the peak: well below it. *)
  Alcotest.(check bool) "nontrivial prediction" true
    (predicted < 0.95 *. Multiscale.peak_rate ms)

(* 4. Chernoff admission limit agrees with simulated failure rates. *)
let test_chernoff_consistent_with_simulation () =
  let marg = Schedule.marginal schedule in
  let capacity = 20. *. Trace.mean_rate trace in
  let n_max = Chernoff.max_calls marg ~capacity ~target:1e-3 in
  Alcotest.(check bool) "admits several calls" true (n_max >= 5);
  (* Simulate n_max randomly phased schedules on the link: loss should
     be small. *)
  let cfg =
    {
      Smg.trace;
      schedule;
      buffer;
      target_loss = 1e-3;
      replications = 3;
      seed = 11;
    }
  in
  let loss =
    Smg.rcbr_loss cfg ~n:n_max
      ~capacity_per_stream:(capacity /. float_of_int n_max)
  in
  Alcotest.(check bool) "simulated loss below 10x target" true (loss <= 1e-2)

(* 5. End-to-end signaling: play a schedule against a switch port and
   count denials; with capacity = schedule peak there are none. *)
let test_schedule_through_port () =
  let peak = Schedule.peak_rate schedule in
  let port = Port.create ~capacity:peak () in
  let path = Path.create_exn [ port ] ~vci:1 ~initial_rate:(Schedule.rate_at schedule 0) in
  let denied = ref 0 in
  Array.iter
    (fun seg ->
      if seg.Schedule.start_slot > 0 then
        match Path.renegotiate path seg.Schedule.rate with
        | `Granted -> ()
        | `Denied_at _ -> incr denied)
    (Schedule.segments schedule);
  Alcotest.(check int) "no denials at peak capacity" 0 !denied;
  Path.teardown path;
  Alcotest.(check bool) "clean teardown" true (Float.equal (Port.reserved port) 0.)

(* 6. Two schedules sharing a link below their joint peak suffer some
   denials but bookkeeping stays consistent. *)
let test_two_schedules_share_port () =
  let s1 = schedule in
  let s2 = Schedule.shift schedule ~slots:(Schedule.n_slots schedule / 2) in
  let capacity = 1.5 *. Schedule.peak_rate schedule in
  let port = Port.create ~capacity () in
  let p1 = Path.create_exn [ port ] ~vci:1 ~initial_rate:(Schedule.rate_at s1 0) in
  let p2 = Path.create_exn [ port ] ~vci:2 ~initial_rate:(Schedule.rate_at s2 0) in
  (* Interleave renegotiations in slot order; (slot, path) is unique. *)
  let events =
    List.sort (fun (s1, p1, _) (s2, p2, _) -> compare (s1, p1) (s2, p2))
      (List.concat_map
         (fun (path_id, s) ->
           Array.to_list (Schedule.segments s)
           |> List.filter_map (fun seg ->
                  if seg.Schedule.start_slot = 0 then None
                  else Some (seg.Schedule.start_slot, path_id, seg.Schedule.rate)))
         [ (1, s1); (2, s2) ])
  in
  let granted = ref 0 and denied = ref 0 in
  List.iter
    (fun (_, path_id, rate) ->
      let path = if path_id = 1 then p1 else p2 in
      match Path.renegotiate path rate with
      | `Granted -> incr granted
      | `Denied_at _ -> incr denied)
    events;
  Alcotest.(check bool) "most renegotiations succeed" true (!granted > !denied);
  (* Invariant: port reservation equals the sum of current path rates. *)
  Alcotest.(check (float 1e-6)) "bookkeeping consistent"
    (Path.rate p1 +. Path.rate p2)
    (Port.reserved port)

(* 7. Full MBAC pipeline: memoryless is more aggressive than perfect
   knowledge on the same workload (Figs. 7-8's story). *)
let test_memoryless_more_aggressive () =
  let capacity = 12. *. Trace.mean_rate trace in
  let arrival_rate =
    1.5 *. capacity /. (Trace.mean_rate trace *. Schedule.duration schedule)
  in
  let cfg =
    Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3 ~seed:17
  in
  let perfect =
    Mbac.run cfg
      ~controller:
        (Controller.perfect ~descriptor:(Descriptor.of_schedule schedule)
           ~capacity ~target:1e-3)
  in
  let memoryless =
    Mbac.run cfg ~controller:(Controller.memoryless ~capacity ~target:1e-3)
  in
  Alcotest.(check bool) "memoryless utilizes at least as much" true
    (memoryless.Mbac.utilization >= perfect.Mbac.utilization -. 0.02);
  Alcotest.(check bool) "memoryless fails at least as often" true
    (memoryless.Mbac.failure_probability
    >= perfect.Mbac.failure_probability -. 1e-9)

(* 8. The memory scheme is safer than memoryless under the same load. *)
let test_memory_safer_than_memoryless () =
  let capacity = 12. *. Trace.mean_rate trace in
  let arrival_rate =
    2.0 *. capacity /. (Trace.mean_rate trace *. Schedule.duration schedule)
  in
  let cfg =
    Mbac.default_config ~schedule ~capacity ~arrival_rate ~target:1e-3 ~seed:23
  in
  let memoryless =
    Mbac.run cfg ~controller:(Controller.memoryless ~capacity ~target:1e-3)
  in
  let memory =
    Mbac.run cfg ~controller:(Controller.memory ~capacity ~target:1e-3)
  in
  Alcotest.(check bool) "memory does not fail more" true
    (memory.Mbac.failure_probability
    <= memoryless.Mbac.failure_probability +. 1e-9)

(* 9. Trace persistence round-trips through scheduling. *)
let test_trace_file_roundtrip_schedule () =
  let path = Filename.temp_file "rcbr_int" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let small = Trace.sub trace ~pos:0 ~len:1_000 in
      Trace.save small path;
      let loaded = Trace.load path in
      let p = Optimal.default_params ~buffer ~cost_ratio:2e5 loaded in
      let s1 = Optimal.solve p small in
      let s2 = Optimal.solve p loaded in
      Alcotest.(check int) "same schedule from saved trace"
        (Schedule.n_renegotiations s1) (Schedule.n_renegotiations s2))

let () =
  Alcotest.run "rcbr_integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "small buffer vs static" `Quick
            test_small_buffer_vs_static;
          Alcotest.test_case "offline beats online" `Quick test_offline_beats_online;
          Alcotest.test_case "formula 9 vs simulation" `Quick
            test_formula9_predicts_simulation;
          Alcotest.test_case "chernoff vs simulation" `Quick
            test_chernoff_consistent_with_simulation;
          Alcotest.test_case "schedule through port" `Quick
            test_schedule_through_port;
          Alcotest.test_case "two schedules share port" `Quick
            test_two_schedules_share_port;
          Alcotest.test_case "memoryless aggressive" `Quick
            test_memoryless_more_aggressive;
          Alcotest.test_case "memory safer" `Quick test_memory_safer_than_memoryless;
          Alcotest.test_case "trace roundtrip" `Quick
            test_trace_file_roundtrip_schedule;
        ] );
    ]
