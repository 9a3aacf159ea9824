(* Lightweight renegotiation signaling across a multi-hop ATM-like path
   (Section III).

   RM cells carry rate *deltas* so that, in the paper's design, switches
   need no per-VCI state; the price is drift when cells are lost,
   repaired by periodic resync cells.  This port keeps per-VCI rates
   anyway, so that a resync can snap a VCI back to its absolute rate and
   retransmitted requests stay idempotent.  This example walks a
   connection across three switches over a lossless signalling plane,
   exercises denial + rollback, and demonstrates the drift/resync
   tradeoff.

   Run with:  dune exec examples/multi_hop.exe *)

module Port = Rcbr_signal.Port
module Path = Rcbr_signal.Path
module Rm_cell = Rcbr_signal.Rm_cell
module Injector = Rcbr_fault.Injector
module Rng = Rcbr_util.Rng

let () =
  (* A three-hop path; the middle hop is the bottleneck. *)
  let ports =
    [
      Port.create ~capacity:10e6 ();
      Port.create ~capacity:2e6 ();
      Port.create ~capacity:10e6 ();
    ]
  in
  let path = Path.create_exn ports ~vci:17 ~initial_rate:400e3 in
  Format.printf "connection up across %d hops at %.0f kb/s@." (Path.hops path)
    (Path.rate path /. 1e3);

  (* Renegotiate up and down; a request beyond the bottleneck is denied
     mid-path and rolled back everywhere.  A lossless plane never loses
     a cell. *)
  let inj = Injector.create (Rcbr_fault.Plan.null ~hops:(Path.hops path)) in
  List.iter
    (fun rate ->
      match Path.transmit path ~inj (Path.request path rate) with
      | `Granted _ ->
          Format.printf "renegotiate to %7.0f kb/s: granted@." (rate /. 1e3)
      | `Denied (hop, _) ->
          Format.printf
            "renegotiate to %7.0f kb/s: denied at hop %d (rate stays %.0f kb/s)@."
            (rate /. 1e3) hop
            (Path.rate path /. 1e3)
      | `Lost -> assert false)
    [ 800e3; 1.6e6; 3e6; 1.2e6; 200e3 ];
  List.iteri
    (fun i p ->
      Format.printf "  hop %d reserved: %.0f kb/s@." i (Port.reserved p /. 1e3))
    ports;

  (* Drift: deltas lost on a noisy signaling channel make the switch
     belief diverge from the source's true rate; a resync every k
     renegotiations bounds the error. *)
  Format.printf "@.delta-loss drift over 2000 renegotiations (10%% cell loss):@.";
  List.iter
    (fun resync_every ->
      let port = Port.create ~capacity:1e9 () in
      let rng = Rng.create 13 in
      let true_rate = ref 500e3 in
      ignore (Port.process port (Rm_cell.delta ~vci:1 !true_rate));
      let worst = ref 0. in
      for i = 1 to 2000 do
        let next = Rng.float_range rng 100e3 900e3 in
        let cell =
          if resync_every > 0 && i mod resync_every = 0 then
            Rm_cell.resync ~vci:1 next
          else Rm_cell.delta ~vci:1 (next -. !true_rate)
        in
        true_rate := next;
        (* 10% of signaling cells never reach the switch. *)
        if Rng.float rng >= 0.1 then ignore (Port.process port cell);
        worst := Float.max !worst (Float.abs (Port.drift port ~actual:!true_rate))
      done;
      let label =
        if resync_every = 0 then "never resync   "
        else Printf.sprintf "resync every %2d" resync_every
      in
      Format.printf "  %s: worst drift %8.0f kb/s@." label (!worst /. 1e3))
    [ 0; 50; 10 ]
