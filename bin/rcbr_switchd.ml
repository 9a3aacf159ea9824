(* CLI: RCBR switch daemon.

   Serves the Rcbr_wire signalling protocol on a Unix-domain socket,
   applying setups / renegotiations / teardowns / RM cells to real
   Rcbr_net.Link accounting over a chosen topology.  Protocol logic
   lives in Rcbr_wire.Switchd; this file is only the socket pump.

   SIGINT/SIGTERM starts a graceful drain: stop accepting, deny new
   setups, keep serving live connections for a grace period, then run
   the final rate-conservation audit and exit 0 iff it is clean.

   Example:
     rcbr_switchd --socket /tmp/rcbr.sock --topology linear:3 --capacity 2e6 *)

open Cmdliner
module Topology = Rcbr_net.Topology
module Controller = Rcbr_admission.Controller
module Codec = Rcbr_wire.Codec
module Switchd = Rcbr_wire.Switchd
module Interrupt = Rcbr_util.Interrupt

type client = {
  fd : Unix.file_descr;
  conn : Switchd.conn;
  out : Buffer.t;  (** reply bytes the socket refused, in order *)
  mutable broken : bool;  (** a reply write failed; close after the read *)
}

(* After serving a frame, select without sleeping for this long: a
   closed-loop client's next request comes a few microseconds after its
   reply, and a wake-up from a sleeping select costs more than the
   request.  It is Linux's recommended net.core.busy_read value; past
   it the loop blocks as before, so an idle daemon sleeps. *)
let poll_window = 50e-6

let run socket_path topo_spec capacity controller_name target grace =
  let topology =
    match Topology.of_spec ~capacity topo_spec with
    | Ok t -> t
    | Error msg ->
        Format.eprintf "rcbr_switchd: %s@." msg;
        exit 2
  in
  let controller =
    match controller_name with
    | "none" -> None
    | "memoryless" -> Some (Controller.memoryless ~capacity ~target)
    | "memory" -> Some (Controller.memory ~capacity ~target)
    | "always" -> Some (Controller.always_admit ())
    | other -> Fmt.failwith "unknown controller %S" other
  in
  let t =
    Switchd.create { (Switchd.default_config topology) with Switchd.controller }
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Interrupt.install_flag ();
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 16;
  Unix.set_nonblock listener;
  let start = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. start in
  (* Poll only with a second CPU: on one, the poll holds the core the
     client needs.  The count respects CPU affinity. *)
  let poll = Domain.recommended_domain_count () > 1 in
  let last_served = ref neg_infinity in
  let clients = ref [] in
  let buf = Bytes.create 65536 in
  (* The select sets, kept across rounds.  They change only when a
     client connects or closes, when a client's queued output starts or
     drains, or when the listener closes; each of those marks them
     stale, and the next round rebuilds them.  A round where no fd is
     ready builds no list. *)
  let accepting = ref true in
  let read_fds = ref [] and write_fds = ref [] and stale = ref true in
  let select_sets () =
    if !stale then begin
      let fds = List.map (fun c -> c.fd) !clients in
      read_fds := if !accepting then listener :: fds else fds;
      write_fds :=
        List.filter_map
          (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
          !clients;
      stale := false
    end
  in
  let close_client c =
    clients := List.filter (fun c' -> c'.fd != c.fd) !clients;
    stale := true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let flush_out c =
    let len = Buffer.length c.out in
    if len > 0 then
      let s = Buffer.to_bytes c.out in
      match Unix.write c.fd s 0 len with
      | n ->
          Buffer.clear c.out;
          if n < len then Buffer.add_subbytes c.out s n (len - n)
          else stale := true
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          close_client c
  in
  (* The socket refused [frame] from [off] on while nothing was
     queued: queue the rest, which puts the client in the write set. *)
  let queue c frame off =
    stale := true;
    Buffer.add_substring c.out frame off (String.length frame - off)
  in
  (* A reply goes straight to the socket.  Only what the socket refuses
     is queued, and once something is queued every later reply queues
     behind it, so replies leave in order. *)
  let send c frame =
    if c.broken then ()
    else if Buffer.length c.out > 0 then Buffer.add_string c.out frame
    else
      let len = String.length frame in
      match Unix.write_substring c.fd frame 0 len with
      | n -> if n < len then queue c frame n
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          queue c frame 0
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          c.broken <- true
  in
  let handle_read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_client c
    | 0 ->
        flush_out c;
        close_client c
    | n -> (
        let served =
          Switchd.feed t c.conn ~now:(now ()) buf ~off:0 ~len:n (send c)
        in
        last_served := Unix.gettimeofday ();
        match served with
        | Ok () -> if c.broken then close_client c
        | Error e ->
            (* Framing is lost: no way back into sync on a byte stream. *)
            Format.eprintf "rcbr_switchd: closing connection: %a@."
              Codec.pp_error e;
            if not c.broken then flush_out c;
            close_client c)
  in
  let rec accept_all () =
    match Unix.accept ~cloexec:true listener with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | fd, _ ->
        Unix.set_nonblock fd;
        stale := true;
        clients :=
          {
            fd;
            conn = Switchd.connect t;
            out = Buffer.create 256;
            broken = false;
          }
          :: !clients;
        accept_all ()
  in
  (* Guard against clock steps: a negative age does not poll. *)
  let timeout () =
    let age = Unix.gettimeofday () -. !last_served in
    if poll && 0. <= age && age < poll_window then 0. else 0.25
  in
  (* The scans' closures capture the ready lists, so a round where
     nothing is ready skips them rather than build them. *)
  let serve_round () =
    select_sets ();
    match Unix.select !read_fds !write_fds [] (timeout ()) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if !accepting && List.memq listener readable then accept_all ();
        if readable <> [] then
          List.iter
            (fun c ->
              if List.memq c !clients && List.memq c.fd readable then
                handle_read c)
            !clients;
        if writable <> [] then
          List.iter
            (fun c ->
              if List.memq c !clients && List.memq c.fd writable then
                flush_out c)
            !clients
  in
  Format.printf "rcbr_switchd: listening on %s (%a)@." socket_path Topology.pp
    topology;
  while not (Interrupt.requested ()) do
    serve_round ()
  done;
  (* Drain: no new connections, no new setups; live connections get
     [grace] seconds to finish their business and hang up. *)
  accepting := false;
  stale := true;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  ignore (Switchd.drain t);
  let deadline = Unix.gettimeofday () +. grace in
  while !clients <> [] && Unix.gettimeofday () < deadline do
    serve_round ()
  done;
  List.iter
    (fun c ->
      flush_out c;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    !clients;
  let report = Switchd.drain t in
  let s = Switchd.stats t in
  Format.printf "rcbr_switchd: drained: sessions=%d violations=%d demand=%.6g@."
    report.Switchd.live_sessions report.Switchd.violations
    report.Switchd.demand;
  Format.printf
    "rcbr_switchd: stats: setups=%d renegotiations=%d teardowns=%d deltas=%d \
     resyncs=%d audits=%d denials=%d duplicates=%d decode-errors=%d \
     stray-cells=%d unexpected=%d underflows=%d@."
    s.Switchd.setups s.Switchd.renegotiations s.Switchd.teardowns
    s.Switchd.deltas s.Switchd.resyncs s.Switchd.audits s.Switchd.denials
    s.Switchd.duplicates s.Switchd.decode_errors s.Switchd.stray_cells
    s.Switchd.unexpected s.Switchd.underflows;
  exit (if report.Switchd.violations = 0 then 0 else 1)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on.")

let topology_arg =
  Arg.(
    value
    & opt (conv' (Topology.spec_of_string, Topology.pp_spec)) Topology.Single
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Network shape: $(b,single), $(b,linear:HOPS) or $(b,mesh:FILE) — \
           the same specs rcbr_mbac accepts.  Clients must be configured \
           with the matching topology so their route link ids line up.")

let capacity_arg =
  Arg.(
    value & opt float 1e6
    & info [ "capacity" ] ~docv:"BPS"
        ~doc:"Per-link capacity for the built-in single/linear shapes.")

let controller_arg =
  Arg.(
    value & opt string "none"
    & info [ "controller" ] ~docv:"NAME"
        ~doc:
          "Admission gate applied to setups on top of the capacity fit: \
           $(b,none), $(b,memoryless), $(b,memory) or $(b,always).")

let target_arg =
  Arg.(
    value & opt float 1e-3
    & info [ "target" ] ~docv:"P" ~doc:"Overflow target for the controller.")

let grace_arg =
  Arg.(
    value & opt float 5.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:
          "After SIGINT/SIGTERM, keep serving live connections this long \
           before the final audit.")

let () =
  let info =
    Cmd.info "rcbr_switchd" ~version:"1.0"
      ~doc:"RCBR signalling switch daemon on a Unix-domain socket."
  in
  let term =
    Term.(
      const run $ socket_arg $ topology_arg $ capacity_arg $ controller_arg
      $ target_arg $ grace_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
