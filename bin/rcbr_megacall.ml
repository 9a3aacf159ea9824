(* CLI: million-call engine runs — ramp a target concurrent population
   onto sharded grid meshes and report throughput-relevant counters and
   the deterministic outcome hash.

   Example:
     rcbr_megacall --concurrent 1048576 -j 4
     rcbr_megacall --concurrent 4096 --shards 4 --seed 7   # quick look *)

open Cmdliner
module Megacall = Rcbr_sim.Megacall
module Service_model = Rcbr_policy.Service_model
module Mts = Rcbr_policy.Mts

(* Service models without a trellis schedule derive their ladders from
   the engine's renegotiation levels instead (DESIGN.md §15). *)
let service_of_spec spec (levels : float array) =
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let lo = sorted.(0) and hi = sorted.(Array.length sorted - 1) in
  let mean =
    Array.fold_left ( +. ) 0. levels /. float_of_int (Array.length levels)
  in
  match
    Service_model.of_spec spec
      ~default_tiers:(fun n ->
        match n with
        | None ->
            List.sort_uniq Float.compare (Array.to_list sorted) |> Array.of_list
        | Some k ->
            Array.init k (fun i ->
                lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (k - 1)))))
      ~default_mts:(fun () -> Mts.ladder ~scales:3 ~quantum:50. ~mean ~peak:hi)
  with
  | Ok s -> s
  | Error msg -> Fmt.failwith "%s" msg

let run concurrent shards rows cols pieces mean_hold horizon seed service_spec
    jobs =
  Rcbr_util.Interrupt.install_exit ~on_signal:(fun _ -> ()) ();
  let base = Megacall.default ~concurrent () in
  let service = service_of_spec service_spec base.Megacall.levels in
  let cfg =
    {
      base with
      Megacall.shards;
      rows;
      cols;
      calls_per_shard = (concurrent + shards - 1) / shards;
      pieces_per_call = pieces;
      mean_hold;
      horizon;
      seed;
      service;
    }
  in
  (* lint: allow D003 — CLI wall-clock for the throughput report only;
     simulation results are time-independent *)
  let t0 = Unix.gettimeofday () in
  let m =
    Rcbr_util.Pool.with_pool ?jobs @@ fun pool ->
    let pool = if Rcbr_util.Pool.jobs pool <= 1 then None else Some pool in
    Megacall.run ?pool cfg
  in
  (* lint: allow D003 — closes the throughput-report timer above *)
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "shards: %d x (%dx%d mesh, %d calls)@." cfg.Megacall.shards
    cfg.Megacall.rows cfg.Megacall.cols cfg.Megacall.calls_per_shard;
  Format.printf "arrivals: %d  admitted: %d  denied: %d@."
    m.Megacall.total_arrivals m.Megacall.total_admitted m.Megacall.total_denied;
  Format.printf "renegotiations: %d (%d denied)  departures: %d@."
    m.Megacall.total_reneg_attempts m.Megacall.total_reneg_denied
    m.Megacall.total_departures;
  Format.printf "concurrent: %d (peak %d)  events fired: %d@."
    m.Megacall.concurrent_calls m.Megacall.peak_concurrent
    m.Megacall.total_events;
  Format.printf "batch hits: %d@." m.Megacall.total_batch_hits;
  if service <> Service_model.Renegotiate then
    Format.printf "service: %s  downgrades: %d  upgrades: %d@."
      (Service_model.name service)
      m.Megacall.total_downgrades m.Megacall.total_upgrades;
  Format.printf "audit violations: %d  outcome hash: %d@."
    m.Megacall.audit_violations m.Megacall.outcome_hash;
  Format.printf "wall: %.3fs  calls/s: %.0f  events/s: %.0f@." wall
    (float_of_int m.Megacall.total_admitted /. wall)
    (float_of_int m.Megacall.total_events /. wall);
  if m.Megacall.audit_violations > 0 then exit 1

let concurrent_arg =
  Arg.(
    value & opt int 1_048_576
    & info [ "concurrent" ] ~docv:"N" ~doc:"Target concurrent calls, summed over shards.")

let shards_arg = Arg.(value & opt int 8 & info [ "shards" ] ~docv:"S")
let rows_arg = Arg.(value & opt int 8 & info [ "rows" ] ~docv:"R")
let cols_arg = Arg.(value & opt int 8 & info [ "cols" ] ~docv:"C")
let pieces_arg = Arg.(value & opt int 4 & info [ "pieces" ] ~docv:"K")

let hold_arg =
  Arg.(value & opt float 50. & info [ "mean-hold" ] ~docv:"SECONDS")

let horizon_arg = Arg.(value & opt float 8. & info [ "horizon" ] ~docv:"SECONDS")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED")

let service_arg =
  Arg.(
    value
    & opt string "renegotiate"
    & info [ "service" ] ~docv:"MODEL"
        ~doc:
          ("Service model applied to non-fitting rates: "
          ^ Service_model.spec_doc))

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default: cores - 1; 1 = sequential).  Results \
           are identical for every value.")

let () =
  let info =
    Cmd.info "rcbr_megacall" ~version:"1.0"
      ~doc:"Million-call RCBR simulation on sharded grid meshes."
  in
  let term =
    Term.(
      const run $ concurrent_arg $ shards_arg $ rows_arg $ cols_arg
      $ pieces_arg $ hold_arg $ horizon_arg $ seed_arg $ service_arg
      $ jobs_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
