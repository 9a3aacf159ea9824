(* CLI: measurement-based admission control simulation.

   Example:
     rcbr_mbac --capacity-mult 16 --load 1.0 --controller memoryless *)

open Cmdliner
module Trace = Rcbr_traffic.Trace
module Optimal = Rcbr_core.Optimal
module Schedule = Rcbr_core.Schedule
module Mbac = Rcbr_sim.Mbac
module Multihop = Rcbr_sim.Multihop
module Topology = Rcbr_net.Topology
module Session = Rcbr_net.Session
module Controller = Rcbr_admission.Controller
module Descriptor = Rcbr_admission.Descriptor
module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts

(* The service spec is resolved against the computed schedule: the
   default downgrade ladder picks tiers among the schedule's own
   segment rates, and the default MTS profile is the one the schedule
   itself conforms to. *)
let service_of_spec spec schedule =
  match
    Service_model.of_spec spec
      ~default_tiers:(fun n ->
        Service_model.tiers_of_schedule schedule
          ~n:(Option.value n ~default:4))
      ~default_mts:(fun () -> Mts.of_schedule schedule ~scales:3 ~base_window:16)
  with
  | Ok s -> s
  | Error msg -> Fmt.failwith "%s" msg

(* The non-trivial topologies run the Section III-C call-level
   experiment on the shared network core ([Multihop.run_net]): transit
   calls spread across the topology's routes, local cross traffic on
   every link.  [linear:H] is the bench hop sweep's network. *)
let run_net_experiment ~schedule ~seed ~transit_calls ~local_calls ~rm_drop
    ~rm_timeout ~rm_max_retx ~service topology =
  let horizon = 4. *. Schedule.duration schedule in
  let faults =
    if rm_drop <= 0. then Session.no_faults
    else
      {
        Session.no_faults with
        Session.rm_drop;
        retx_timeout = rm_timeout;
        max_retransmits = rm_max_retx;
        fault_seed = seed + 2;
        check_invariants = true;
      }
  in
  Format.printf "topology: %a@." Topology.pp topology;
  let m, f =
    Multihop.run_net
      {
        Multihop.schedule;
        topology;
        transit_calls;
        local_calls_per_link = local_calls;
        horizon;
        seed = seed + 1;
        balance = false;
        service;
      }
      faults
  in
  Format.printf
    "@[<v>transit increases:   %d attempted, %d denied (fraction %.12g)@,\
     local increases:     %d attempted, %d denied@,\
     mean hop util:       %.12g@]@."
    m.Multihop.transit_attempts m.Multihop.transit_denials
    (Multihop.denial_fraction m) m.Multihop.local_attempts
    m.Multihop.local_denials m.Multihop.mean_hop_utilization;
  if service <> Service_model.Renegotiate then
    Format.printf "downgraded changes:  %d@." m.Multihop.downgrades;
  if rm_drop > 0. then
    Format.printf
      "@[<v>RM cells dropped:    %d@,\
       retransmissions:     %d@,\
       abandoned changes:   %d@,\
       superseded retx:     %d@,\
       crash denials:       %d@,\
       invariant failures:  %d@]@."
      f.Multihop.rm_lost f.Multihop.retransmits f.Multihop.abandoned
      f.Multihop.superseded f.Multihop.crash_denials
      f.Multihop.invariant_failures

let run seed frames cost_ratio capacity_mult load target controller_name
    admission_stats rm_drop rm_timeout rm_max_retx topo_spec
    transit_calls local_calls service_spec =
  (* Ctrl-C mid-run: flush the stats printed so far, then exit with the
     interrupt convention instead of dying with a truncated buffer. *)
  Rcbr_util.Interrupt.install_exit
    ~on_signal:(fun _ ->
      Format.pp_print_flush Format.std_formatter ();
      prerr_endline "rcbr_mbac: interrupted, partial output flushed")
    ();
  let trace = Rcbr_traffic.Synthetic.star_wars ~frames ~seed () in
  let mean = Trace.mean_rate trace in
  let schedule =
    Optimal.solve (Optimal.default_params ~cost_ratio trace) trace
  in
  let capacity = capacity_mult *. mean in
  let service = service_of_spec service_spec schedule in
  match topo_spec with
  | Topology.Linear _ | Topology.Mesh _ -> (
      match Topology.of_spec ~capacity topo_spec with
      | Ok topology ->
          run_net_experiment ~schedule ~seed ~transit_calls ~local_calls
            ~rm_drop ~rm_timeout ~rm_max_retx ~service topology
      | Error msg ->
          Format.eprintf "rcbr_mbac: %s@." msg;
          exit 2)
  | Topology.Single ->
  let arrival_rate =
    load *. capacity /. (Schedule.mean_rate schedule *. Schedule.duration schedule)
  in
  let cfg =
    Mbac.default_config ~schedule ~capacity ~arrival_rate ~target ~seed:(seed + 1)
  in
  let cfg = { cfg with Mbac.service } in
  let cfg =
    if rm_drop <= 0. then cfg
    else
      {
        cfg with
        Mbac.faults =
          {
            Session.no_faults with
            Session.rm_drop;
            retx_timeout = rm_timeout;
            max_retransmits = rm_max_retx;
            fault_seed = seed + 2;
          };
      }
  in
  let controller =
    match controller_name with
    | "perfect" ->
        Controller.perfect ~descriptor:(Descriptor.of_schedule schedule)
          ~capacity ~target
    | "memoryless" -> Controller.memoryless ~capacity ~target
    | "memory" -> Controller.memory ~capacity ~target
    | "always" -> Controller.always_admit ()
    | other -> Fmt.failwith "unknown controller %S" other
  in
  Format.printf
    "link %.0f kb/s (%.0fx mean), offered load %.2f, target %.1e, controller %s@."
    (capacity /. 1e3) capacity_mult (Mbac.offered_load cfg) target
    (Controller.name controller);
  let m = Mbac.run cfg ~controller in
  Format.printf
    "@[<v>failure probability: %.3e (+/- %.1e)@,\
     utilization:         %.4f (+/- %.1e)@,\
     call blocking:       %.4f@,\
     denied increases:    %.4f@,\
     mean calls:          %.2f@,\
     windows sampled:     %d@]@."
    m.Mbac.failure_probability m.Mbac.failure_halfwidth m.Mbac.utilization
    m.Mbac.utilization_halfwidth m.Mbac.call_blocking m.Mbac.denial_fraction
    m.Mbac.mean_calls_in_system m.Mbac.windows;
  if service <> Service_model.Renegotiate then
    Format.printf "downgrades/upgrades: %d / %d@." m.Mbac.downgrades
      m.Mbac.upgrades;
  if rm_drop > 0. then
    Format.printf
      "@[<v>RM cells dropped:    %d@,\
       retransmissions:     %d@,\
       abandoned changes:   %d@]@."
      m.Mbac.signalling_dropped m.Mbac.signalling_retransmits
      m.Mbac.signalling_abandoned;
  let a = m.Mbac.admission in
  if admission_stats then
    Format.printf
      "@[<v>admission decisions: %d (%d admitted), hash %x@,\
       batch hits:          %d@,\
       solver work:         %d log-MGF evals, %d fit probes (%d fallbacks), \
       %d queries@]@."
      a.Controller.decisions a.Controller.admits a.Controller.decision_hash
      a.Controller.batch_hits
      a.Controller.solver.Rcbr_effbw.Chernoff.Solver.mgf_evals
      a.Controller.solver.Rcbr_effbw.Chernoff.Solver.fits_evals
      a.Controller.solver.Rcbr_effbw.Chernoff.Solver.fallbacks
      a.Controller.solver.Rcbr_effbw.Chernoff.Solver.queries

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED")
let frames_arg = Arg.(value & opt int 20_000 & info [ "frames" ] ~docv:"N")

let cost_ratio_arg =
  Arg.(value & opt float 2e5 & info [ "cost-ratio" ] ~docv:"ALPHA")

let capacity_arg =
  Arg.(
    value & opt float 16.
    & info [ "capacity-mult" ] ~docv:"K"
        ~doc:"Link capacity as a multiple of the call mean rate.")

let load_arg =
  Arg.(value & opt float 1.0 & info [ "load" ] ~docv:"RHO" ~doc:"Offered load.")

let target_arg = Arg.(value & opt float 1e-3 & info [ "target" ] ~docv:"P")

let controller_arg =
  Arg.(
    value & opt string "memoryless"
    & info [ "controller" ] ~docv:"NAME"
        ~doc:"One of: perfect, memoryless, memory, always.")

let admission_stats_arg =
  Arg.(
    value & flag
    & info [ "admission-stats" ]
        ~doc:"Print decision/solver counters after the run.")

let rm_drop_arg =
  Arg.(
    value & opt float 0.
    & info [ "rm-drop" ] ~docv:"P"
        ~doc:"Loss probability per renegotiation cell (0 disables faults).")

let rm_timeout_arg =
  Arg.(
    value & opt float 0.25
    & info [ "rm-timeout" ] ~docv:"SECONDS"
        ~doc:"Retransmission timeout for lost renegotiation cells.")

let rm_max_retx_arg =
  Arg.(
    value & opt int 4
    & info [ "rm-max-retx" ] ~docv:"N"
        ~doc:"Retransmissions before a change is applied anyway.")

let topology_arg =
  Arg.(
    value
    & opt (conv' (Topology.spec_of_string, Topology.pp_spec)) Topology.Single
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Network shape: $(b,single) (one bottleneck link, the classic \
           MBAC experiment), $(b,linear:HOPS) (a chain of links; transit \
           calls cross all of them), or $(b,mesh:FILE) (arbitrary topology \
           loaded from a JSON file, see Rcbr_net.Topology.of_json).  The \
           non-single shapes run the call-level renegotiation experiment \
           and honour the rm-* fault flags.")

let transit_arg =
  Arg.(
    value & opt int 3
    & info [ "transit-calls" ] ~docv:"N"
        ~doc:"Transit calls spread over the routes (non-single topologies).")

let local_arg =
  Arg.(
    value & opt int 5
    & info [ "local-calls" ] ~docv:"N"
        ~doc:"Local cross-traffic calls per link (non-single topologies).")

let service_arg =
  Arg.(
    value & opt string "renegotiate"
    & info [ "service" ] ~docv:"MODEL"
        ~doc:("Service model for non-fitting rate changes: " ^ Service_model.spec_doc ^ "."))

let () =
  let info =
    Cmd.info "rcbr_mbac" ~version:"1.0"
      ~doc:"Call-level simulation of measurement-based admission control."
  in
  let term =
    Term.(
      const run $ seed_arg $ frames_arg $ cost_ratio_arg $ capacity_arg
      $ load_arg $ target_arg $ controller_arg
      $ admission_stats_arg $ rm_drop_arg $ rm_timeout_arg $ rm_max_retx_arg
      $ topology_arg $ transit_arg $ local_arg $ service_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
