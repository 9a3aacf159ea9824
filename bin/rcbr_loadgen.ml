(* CLI: deterministic signalling load generator for rcbr_switchd.

   Drives a seeded setup/renegotiate/teardown storm (Rcbr_wire.Loadgen)
   over one or more Unix-socket connections, optionally mangling its own
   outbound frames with a seeded byte-level fault model
   (Rcbr_wire.Mangle reusing Rcbr_fault.Plan probabilities).  Requests
   carry idempotent ids and are retransmitted with exponential backoff;
   after the storm a reliable finish phase re-sends every teardown and
   asks the switch for a conservation audit, so the run ends with a
   definite verdict: exit 0 iff the switch is empty and conserving.

   The printed outcome-hash digests every per-request outcome; two runs
   with the same seed against a fresh daemon must print the same hash.

   Example:
     rcbr_loadgen --socket /tmp/rcbr.sock --calls 16 --rounds 4 \
       --drop 0.1 --corrupt 0.05 --seed 7 *)

open Cmdliner
module Topology = Rcbr_net.Topology
module Plan = Rcbr_fault.Plan
module Codec = Rcbr_wire.Codec
module Frame = Rcbr_wire.Frame
module Mangle = Rcbr_wire.Mangle
module Loadgen = Rcbr_wire.Loadgen

type conn = {
  fd : Unix.file_descr;
  reader : Frame.Reader.t;
  mangle : Mangle.t option;
  decode_errors : int ref;  (* server->client frames that failed to decode *)
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_raw c frames = List.iter (write_all c.fd) frames

(* One frame onto the wire, through this connection's mangler if any. *)
let send c frame =
  match c.mangle with
  | None -> write_all c.fd frame
  | Some m -> send_raw c (Mangle.send m frame)

(* Next well-formed message before [deadline], or None on timeout.
   Frames that fail to decode are counted and skipped — corruption is
   expected under a fault plan and must not kill the client. *)
let rec recv_until c ~deadline =
  match Frame.Reader.next c.reader with
  | `Msg m -> Some m
  | `Error _ ->
      incr c.decode_errors;
      recv_until c ~deadline
  | `Fatal e -> Fmt.failwith "rcbr_loadgen: framing lost: %a" Codec.pp_error e
  | `Await -> (
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then None
      else
        match Unix.select [ c.fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            recv_until c ~deadline
        | [], _, _ -> None
        | _ -> (
            let buf = Bytes.create 4096 in
            match Unix.read c.fd buf 0 4096 with
            | 0 -> Fmt.failwith "rcbr_loadgen: server closed the connection"
            | n ->
                Frame.Reader.feed c.reader buf ~off:0 ~len:n;
                recv_until c ~deadline))

(* Send [msg], wait for the reply carrying [req]; retransmit with
   exponential backoff up to [max_retx] times, then give up (None).
   Replies to other request ids (late answers to requests we already
   resolved, or duplicate answers from daemon-side idempotency) are
   skipped. *)
let request c ~timeout ~max_retx ~retransmits ~req msg =
  let frame = Codec.frame msg in
  let rec attempt i =
    if i > max_retx then None
    else begin
      if i > 0 then incr retransmits;
      send c frame;
      let deadline =
        Unix.gettimeofday () +. Loadgen.backoff ~base:timeout ~attempt:i
      in
      let rec wait () =
        match recv_until c ~deadline with
        | None -> attempt (i + 1)
        | Some reply -> (
            match Codec.req reply with
            | Some r when r = req -> Some reply
            | _ -> wait ())
      in
      wait ()
    end
  in
  attempt 0

let outcome_of_reply = function
  | None -> Loadgen.Gave_up
  | Some (Codec.Ack { applied; _ }) -> Loadgen.Acked applied
  | Some (Codec.Deny { reason; _ }) -> Loadgen.Denied reason
  | Some _ -> Loadgen.Gave_up

let run socket_path topo_spec capacity calls rounds rate_max rm_fraction seed
    conns_n timeout max_retx drop duplicate reorder delay corrupt
    max_extra_slots =
  let topology =
    match Topology.of_spec ~capacity topo_spec with
    | Ok t -> t
    | Error msg ->
        Format.eprintf "rcbr_loadgen: %s@." msg;
        exit 2
  in
  let ops =
    Loadgen.storm ~topology ~calls ~rounds ~rate_max ~rm_fraction ~seed
      ~conns:conns_n
  in
  let lossy =
    drop > 0. || duplicate > 0. || reorder > 0. || delay > 0. || corrupt > 0.
  in
  let conns =
    Array.init conns_n (fun c ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        {
          fd;
          reader = Frame.Reader.create ();
          mangle =
            (if lossy then
               Some
                 (Mangle.create ~seed:(seed + 7001 + c)
                    (Plan.lossy ~drop ~duplicate ~reorder ~delay ~corrupt
                       ~max_extra_slots ()))
             else None);
          decode_errors = ref 0;
        })
  in
  let outcomes = ref [] in
  let retransmits = ref 0 in
  let next_req = ref 0 in
  let fresh_req () =
    let r = !next_req in
    incr next_req;
    r
  in
  let record req outcome = outcomes := (req, outcome) :: !outcomes in
  (* Lock-step round-robin over the per-connection op queues: each
     request resolves (ack, deny or give-up) before the next connection
     moves, so the order the daemon applies changes in is a pure
     function of the seed. *)
  let queues = Array.map (fun l -> ref l) ops in
  let remaining () = Array.exists (fun q -> !q <> []) queues in
  while remaining () do
    Array.iteri
      (fun c q ->
        match !q with
        | [] -> ()
        | op :: rest -> (
            q := rest;
            let conn = conns.(c) in
            let req = fresh_req () in
            let msg = Loadgen.message_of_op ~req op in
            match op with
            | Loadgen.Op_delta _ | Loadgen.Op_resync _ ->
                send conn (Codec.frame msg);
                record req Loadgen.Sent
            | Loadgen.Op_setup _ | Loadgen.Op_reneg _ | Loadgen.Op_teardown _
              ->
                record req
                  (outcome_of_reply
                     (request conn ~timeout ~max_retx ~retransmits ~req msg))))
      queues
  done;
  (* Release anything still held inside the manglers — those frames were
     "in the network" and the daemon must cope with them too. *)
  Array.iter
    (fun c ->
      match c.mangle with None -> () | Some m -> send_raw c (Mangle.flush m))
    conns;
  (* Reliable finish phase: the storm's teardowns travelled through the
     mangler, so a call may still be live on the switch (teardown gave
     up) or live again (a delayed setup released above).  Re-send every
     teardown unmangled; Deny Unknown_call just means already gone. *)
  let finish_acks = ref 0 in
  for call = 0 to calls - 1 do
    let c = { (conns.(call mod conns_n)) with mangle = None } in
    let req = fresh_req () in
    let reply =
      request c ~timeout ~max_retx:8 ~retransmits ~req
        (Codec.Teardown { req; call })
    in
    (match reply with Some (Codec.Ack _) -> incr finish_acks | _ -> ());
    record req (outcome_of_reply reply)
  done;
  (* End-to-end verdict straight from the switch. *)
  let c0 = { (conns.(0)) with mangle = None } in
  let req = fresh_req () in
  let sessions, violations, demand =
    match
      request c0 ~timeout ~max_retx:8 ~retransmits ~req
        (Codec.Audit_request { req })
    with
    | Some (Codec.Audit_reply { sessions; violations; demand; _ }) ->
        (sessions, violations, demand)
    | _ -> Fmt.failwith "rcbr_loadgen: no audit reply from the switch"
  in
  let os = !outcomes in
  let count p = List.length (List.filter p os) in
  let acked = count (fun (_, o) -> match o with Loadgen.Acked _ -> true | _ -> false) in
  let denied = count (fun (_, o) -> match o with Loadgen.Denied _ -> true | _ -> false) in
  let gave_up = count (fun (_, o) -> match o with Loadgen.Gave_up -> true | _ -> false) in
  let cells = count (fun (_, o) -> match o with Loadgen.Sent -> true | _ -> false) in
  Format.printf
    "rcbr_loadgen: requests=%d acked=%d denied=%d gave-up=%d cells=%d \
     retransmits=%d finish-acks=%d reply-decode-errors=%d@."
    (List.length os) acked denied gave_up cells !retransmits !finish_acks
    (Array.fold_left (fun acc c -> acc + !(c.decode_errors)) 0 conns);
  if lossy then begin
    let total f = Array.fold_left (fun acc c ->
        match c.mangle with None -> acc | Some m -> acc + f (Mangle.stats m)) 0 conns
    in
    Format.printf
      "rcbr_loadgen: mangler: sent=%d dropped=%d duplicated=%d reordered=%d \
       delayed=%d corrupted=%d@."
      (total (fun s -> s.Mangle.sent))
      (total (fun s -> s.Mangle.dropped))
      (total (fun s -> s.Mangle.duplicated))
      (total (fun s -> s.Mangle.reordered))
      (total (fun s -> s.Mangle.delayed))
      (total (fun s -> s.Mangle.corrupted))
  end;
  Format.printf "rcbr_loadgen: outcome-hash=%016x@." (Loadgen.outcome_hash os);
  Format.printf "rcbr_loadgen: audit: sessions=%d violations=%d demand=%.6g@."
    sessions violations demand;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  let clean = violations = 0 && sessions = 0 && Float.abs demand < 1e-6 in
  if not clean then
    Format.printf "rcbr_loadgen: FAILED: switch not clean after drain@.";
  exit (if clean then 0 else 1)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of rcbr_switchd.")

let topology_arg =
  Arg.(
    value
    & opt (conv' (Topology.spec_of_string, Topology.pp_spec)) Topology.Single
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:"Must match the daemon's topology so route link ids line up.")

let capacity_arg =
  Arg.(
    value & opt float 1e6
    & info [ "capacity" ] ~docv:"BPS"
        ~doc:"Per-link capacity for the built-in single/linear shapes.")

let calls_arg =
  Arg.(value & opt int 8 & info [ "calls" ] ~docv:"N" ~doc:"Calls in the storm.")

let rounds_arg =
  Arg.(
    value & opt int 3
    & info [ "rounds" ] ~docv:"N" ~doc:"Renegotiation waves per call.")

let rate_max_arg =
  Arg.(
    value & opt float 1e5
    & info [ "rate-max" ] ~docv:"BPS" ~doc:"Upper bound on requested rates.")

let rm_fraction_arg =
  Arg.(
    value & opt float 0.5
    & info [ "rm-fraction" ] ~docv:"F"
        ~doc:
          "Fraction of renegotiations sent as fire-and-forget RM delta \
           cells instead of acked renegotiation requests.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED")

let conns_arg =
  Arg.(
    value & opt int 2
    & info [ "conns" ] ~docv:"N" ~doc:"Concurrent client connections.")

let timeout_arg =
  Arg.(
    value & opt float 0.2
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Base reply timeout; attempt i waits timeout * 2^i.")

let max_retx_arg =
  Arg.(
    value & opt int 4
    & info [ "max-retx" ] ~docv:"N"
        ~doc:"Retransmissions before a request is abandoned.")

let drop_arg =
  Arg.(value & opt float 0. & info [ "drop" ] ~docv:"P" ~doc:"Frame drop probability.")

let duplicate_arg =
  Arg.(
    value & opt float 0.
    & info [ "duplicate" ] ~docv:"P" ~doc:"Frame duplication probability.")

let reorder_arg =
  Arg.(
    value & opt float 0.
    & info [ "reorder" ] ~docv:"P" ~doc:"Frame reorder probability.")

let delay_arg =
  Arg.(
    value & opt float 0.
    & info [ "delay" ] ~docv:"P" ~doc:"Frame delay probability.")

let corrupt_arg =
  Arg.(
    value & opt float 0.
    & info [ "corrupt" ] ~docv:"P"
        ~doc:"Probability of one flipped payload bit per frame.")

let max_extra_slots_arg =
  Arg.(
    value & opt int 4
    & info [ "max-extra-slots" ] ~docv:"N"
        ~doc:"Delayed frames lag 1..N send slots.")

let () =
  let info =
    Cmd.info "rcbr_loadgen" ~version:"1.0"
      ~doc:"Deterministic signalling load generator for rcbr_switchd."
  in
  let term =
    Term.(
      const run $ socket_arg $ topology_arg $ capacity_arg $ calls_arg
      $ rounds_arg $ rate_max_arg $ rm_fraction_arg $ seed_arg $ conns_arg
      $ timeout_arg $ max_retx_arg $ drop_arg $ duplicate_arg $ reorder_arg
      $ delay_arg $ corrupt_arg $ max_extra_slots_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
