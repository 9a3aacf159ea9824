(* A live video call, end to end.

   Two interactive sources share a three-hop RCBR network.  Each runs
   the complete end-system stack of Section III-A: frames enter a 300 kb
   buffer; the NIU monitors the occupancy and renegotiates through the
   actual multi-hop signaling path; denials are retried; grants take a
   125 ms signaling round-trip to bite.  The middle hop is the
   bottleneck, so the two calls compete for renegotiations.

   Run with:  dune exec examples/live_session.exe *)

module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path
module Niu = Rcbr_signal.Niu

let () =
  let alice = Rcbr_traffic.Synthetic.star_wars ~frames:14_400 ~seed:101 () in
  let bob = Rcbr_traffic.Synthetic.star_wars ~frames:14_400 ~seed:202 () in
  (* A three-switch path; the middle port is shared and tight: room for
     about 2.5x the two calls' combined mean rate. *)
  let shared = Port.create ~capacity:1_900_000. () in
  let ports_a = [ Port.create ~capacity:10e6 (); shared; Port.create ~capacity:10e6 () ] in
  let ports_b = [ Port.create ~capacity:10e6 (); shared; Port.create ~capacity:10e6 () ] in
  let path_a = Path.create_exn ports_a ~vci:1 ~initial_rate:400_000. in
  let path_b = Path.create_exn ports_b ~vci:2 ~initial_rate:400_000. in
  let params =
    { Niu.default_params with Niu.delay_slots = 3 (* 125 ms at 24 fps *) }
  in
  (* Interleave the two sessions slot by slot?  The NIU streams are
     independent given the shared port, and renegotiations interleave
     through it; we stream Alice first and then Bob against the port
     state Alice's call left behind, which is how two slightly offset
     sessions contend in practice. *)
  let report name trace outcome =
    Format.printf
      "@[<v>%s:@,  mean source rate  %8.1f kb/s@,  mean reserved     %8.1f kb/s@,\
       \  renegotiations    %8d (denied %d)@,  peak backlog      %8.1f kb@,\
       \  bits lost         %8.2e of offered@]@.@."
      name
      (Trace.mean_rate trace /. 1e3)
      (outcome.Niu.mean_reserved /. 1e3)
      outcome.Niu.attempts outcome.Niu.failures
      (outcome.Niu.max_backlog /. 1e3)
      (outcome.Niu.bits_lost /. outcome.Niu.bits_offered)
  in
  Format.printf "--- two live calls over a shared 1.9 Mb/s bottleneck ---@.@.";
  let out_a = Niu.stream params ~path:path_a alice in
  report "alice" alice out_a;
  let out_b = Niu.stream params ~path:path_b bob in
  report "bob" bob out_b;
  Format.printf "bottleneck reserved at the end: %.1f kb/s of %.1f kb/s@."
    (Port.reserved shared /. 1e3) 1_900.;
  Path.teardown path_a;
  Path.teardown path_b;
  Format.printf "after teardown: %.1f kb/s reserved@." (Port.reserved shared /. 1e3);
  (* What did renegotiation buy?  Static reservations able to carry the
     same sources through the same buffer would need the zero-loss CBR
     rate each. *)
  let static t =
    Rcbr_queue.Sigma_rho.min_rate ~trace:t ~buffer:300_000. ~target_loss:0.
  in
  Format.printf
    "@.static CBR for the same service: %.0f + %.0f = %.0f kb/s -- more than@.\
     twice the bottleneck.  RCBR carried both calls in %.0f kb/s of peak@.\
     reservation.@."
    (static alice /. 1e3) (static bob /. 1e3)
    ((static alice +. static bob) /. 1e3)
    ((Schedule.peak_rate out_a.Niu.schedule
     +. Schedule.peak_rate out_b.Niu.schedule)
    /. 1e3)
