(* signalling: a setup/renegotiate/teardown storm against rcbr_switchd
   over a Unix socket.

   The only served path: Codec, Frame, Switchd, Session and Link behind
   a real socket; it bypasses Controller, Store, Wheel and Pool.  The
   load is closed loop — one client process, two connections, one
   outstanding request on each — because an RCBR source waits for its
   grant before sending at the new rate.  RM cells go out without
   waiting.  Connection c carries the calls on routes of its own parity
   and the 16 routes are link-disjoint, so outcomes do not depend on how
   the two connections interleave; request ids are per connection for
   the same reason.  Peak RSS is the daemon's, read before it drains;
   its per-connection reply cache dies with each storm's connections. *)

module Topology = Rcbr_net.Topology
module Codec = Rcbr_wire.Codec
module Frame = Rcbr_wire.Frame
module Loadgen = Rcbr_wire.Loadgen
module Switchd = Rcbr_wire.Switchd
module Json = Rcbr_util.Json

let calls = 1024
let rounds = 64
let routes = 16
let hops = 4

(* Per-link capacity: about a quarter of the setups and renegotiations
   are denied for capacity at this population. *)
let capacity = 2.5e6
let rate_max = 1e5
let rm_fraction = 0.25
let conns = 2
let daemon_exe = "_build/default/bin/rcbr_switchd.exe"
let topology () = Topology.parallel_routes ~routes ~hops ~capacity

let topology_json (t : Topology.t) =
  Json.Obj
    [
      ("nodes", Json.Int t.n_nodes);
      ( "links",
        Json.List
          (Array.to_list
             (Array.map
                (fun (l : Topology.link) ->
                  Json.Obj
                    [
                      ("src", Json.Int l.src);
                      ("dst", Json.Int l.dst);
                      ("capacity", Json.Float l.capacity);
                    ])
                t.links)) );
      ( "routes",
        Json.List
          (Array.to_list
             (Array.map
                (fun r -> Json.List (Array.to_list (Array.map (fun l -> Json.Int l) r)))
                t.routes)) );
    ]

let storm_ops ~seed =
  Loadgen.storm ~topology:(topology ()) ~calls ~rounds ~rate_max ~rm_fraction ~seed
    ~conns
  |> Array.map Array.of_list

(* Request id of connection [c]'s [k]-th op. *)
let req_id c k = c + (conns * k)

let is_cell = function
  | Loadgen.Op_delta _ | Loadgen.Op_resync _ -> true
  | Loadgen.Op_setup _ | Loadgen.Op_reneg _ | Loadgen.Op_teardown _ -> false

let outcome_of_reply = function
  | Codec.Ack { applied; _ } -> Loadgen.Acked applied
  | Codec.Deny { reason; _ } -> Loadgen.Denied reason
  | _ -> Loadgen.Gave_up

type tally = {
  digest : string;
  requests : int;
  cells : int;
  denied : int;
}

let tally ops outcomes =
  let pairs =
    List.concat
      (List.init conns (fun c ->
           List.init (Array.length ops.(c)) (fun k -> (req_id c k, outcomes.(c).(k)))))
  in
  let count p = List.length (List.filter (fun (_, o) -> p o) pairs) in
  {
    digest = Printf.sprintf "%016x" (Loadgen.outcome_hash pairs);
    requests = count (function Loadgen.Sent -> false | _ -> true);
    cells = count (function Loadgen.Sent -> true | _ -> false);
    denied = count (function Loadgen.Denied _ -> true | _ -> false);
  }

(* --- the daemon ---------------------------------------------------- *)

type daemon = { pid : int; out : in_channel; socket : string; mesh : string }

let start_daemon () =
  if not (Sys.file_exists daemon_exe) then
    failwith (daemon_exe ^ " is missing; run bench/e2e/run.sh from the repo root");
  let run_dir = Workload.run_dir () in
  let tag = Unix.getpid () in
  let mesh = Printf.sprintf "%s/mesh-%d.json" run_dir tag in
  let socket = Printf.sprintf "%s/switchd-%d.sock" run_dir tag in
  Json.save (topology_json (topology ())) mesh;
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process daemon_exe
      [| daemon_exe; "--socket"; socket; "--topology"; "mesh:" ^ mesh; "--grace"; "1" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let d = { pid; out = Unix.in_channel_of_descr r; socket; mesh } in
  match input_line d.out with
  | line when String.starts_with ~prefix:"rcbr_switchd: listening" line -> d
  | _ | (exception End_of_file) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr d.out;
      failwith "rcbr_switchd did not start listening"

let connect d =
  Array.init conns (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX d.socket);
      fd)

(* SIGTERM, then the daemon's own drain verdict: violations over the
   final conservation audit, plus live sessions left behind, plus 1 for
   an unclean exit.  A daemon that does not finish draining in 10 s is
   killed and counted as failed. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let fd = Unix.descr_of_in_channel d.out in
  let rec lines acc =
    match Unix.select [ fd ] [] [] 10. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> lines acc
    | [], _, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        None
    | _ -> (
        match input_line d.out with
        | line -> lines (line :: acc)
        | exception End_of_file -> Some acc)
  in
  let out = lines [] in
  let _, status = Unix.waitpid [] d.pid in
  close_in_noerr d.out;
  let drained =
    Option.bind out
      (List.find_map (fun l ->
           try
             Scanf.sscanf l "rcbr_switchd: drained: sessions=%d violations=%d"
               (fun s v -> Some (s + v))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None))
  in
  match (drained, status) with
  | Some bad, Unix.WEXITED 0 -> bad
  | Some bad, _ -> bad + 1
  | None, _ -> 1

let remove_files d =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ d.mesh; d.socket ]

(* --- the closed-loop client ---------------------------------------- *)

type conn = {
  index : int;
  fd : Unix.file_descr;
  reader : Frame.Reader.t;
  ops : Loadgen.op array;
  outcomes : Loadgen.outcome array;
  mutable next : int;  (** next op to send *)
  mutable pending : int;  (** op awaiting its reply, or -1 *)
  mutable t_start : int;  (** the pending request's encode start, ns *)
  mutable t_sent : int;  (** ... and its write start *)
}

type storm = {
  wall_s : float;
  rtts_us : float array;
  tally : tally;
  faults : int;  (** reply decode errors and replies to the wrong id *)
  gc : float * float * int;  (** client GC deltas, {!Workload.gc_delta} *)
}

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Drive every op of [ops] through the connections [fds].  With [spans],
   each request records a [request] span with [encode], [wait] (write
   until the read that completed the reply) and [decode] children. *)
let run_storm ?spans ops fds =
  let cs =
    Array.mapi
      (fun index fd ->
        {
          index;
          fd;
          reader = Frame.Reader.create ();
          ops = ops.(index);
          outcomes = Array.make (Array.length ops.(index)) Loadgen.Gave_up;
          next = 0;
          pending = -1;
          t_start = 0;
          t_sent = 0;
        })
      fds
  in
  let rtts = ref [] and faults = ref 0 in
  let rec send c =
    if c.pending < 0 && c.next < Array.length c.ops then begin
      let k = c.next in
      c.next <- k + 1;
      let op = c.ops.(k) in
      let req = req_id c.index k in
      let t0 = Span.now_ns () in
      let frame = Codec.frame (Loadgen.message_of_op ~req op) in
      let t1 = Span.now_ns () in
      write_all c.fd frame 0;
      if is_cell op then begin
        c.outcomes.(k) <- Loadgen.Sent;
        send c
      end
      else begin
        c.pending <- k;
        c.t_start <- t0;
        c.t_sent <- t1
      end
    end
  in
  let buf = Bytes.create 65536 in
  let rec drain c t_read =
    match Frame.Reader.next c.reader with
    | `Await -> ()
    | `Fatal e -> failwith ("reply stream lost framing: " ^ Codec.error_to_string e)
    | `Error _ ->
        incr faults;
        drain c t_read
    | `Msg m ->
        let k = c.pending in
        (if k >= 0 && Codec.req m = Some (req_id c.index k) then begin
           let t_done = Span.now_ns () in
           c.outcomes.(k) <- outcome_of_reply m;
           c.pending <- -1;
           rtts := float_of_int (t_done - c.t_start) /. 1e3 :: !rtts;
           Option.iter
             (fun sp ->
               let req = req_id c.index k in
               let parent = Span.add sp ~req "request" ~start:c.t_start ~stop:t_done in
               ignore (Span.add sp ~parent ~req "encode" ~start:c.t_start ~stop:c.t_sent);
               ignore (Span.add sp ~parent ~req "wait" ~start:c.t_sent ~stop:t_read);
               ignore (Span.add sp ~parent ~req "decode" ~start:t_read ~stop:t_done))
             spans;
           send c
         end
         else incr faults);
        drain c t_read
  in
  let on_readable c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "rcbr_switchd closed a connection mid-storm"
    | n ->
        let t_read = Span.now_ns () in
        Frame.Reader.feed c.reader buf ~off:0 ~len:n;
        drain c t_read
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec pump () =
    let waiting = List.filter (fun c -> c.pending >= 0) (Array.to_list cs) in
    if waiting <> [] then begin
      (match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 10. with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> failwith "no reply from rcbr_switchd within 10 s"
      | ready, _, _ ->
          List.iter (fun c -> if List.memq c.fd ready then on_readable c) waiting);
      pump ()
    end
  in
  let t0 = Span.now_ns () in
  let (), gc =
    Workload.gc_delta (fun () ->
        Array.iter send cs;
        pump ())
  in
  {
    wall_s = float_of_int (Span.now_ns () - t0) *. 1e-9;
    rtts_us = Array.of_list !rtts;
    tally = tally ops (Array.map (fun c -> c.outcomes) cs);
    faults = !faults;
    gc;
  }

(* --- in-process replay ------------------------------------------- *)

type replay = { r_tally : tally; input_ns : float; words_per_frame : float; audit : int }

(* The identical op stream fed straight into Switchd.input, no socket:
   the reference the socket run's digest must equal, and the daemon's
   protocol core timed on its own. *)
let replay ops =
  let t = Switchd.create (Switchd.default_config (topology ())) in
  let frames =
    Array.mapi
      (fun c ops ->
        Array.mapi (fun k op -> Codec.frame (Loadgen.message_of_op ~req:(req_id c k) op)) ops)
      ops
  in
  let sconns = Array.init conns (fun _ -> Switchd.connect t) in
  let replies = Array.map (fun fs -> Array.make (Array.length fs) []) frames in
  let n_frames = Array.fold_left (fun acc fs -> acc + Array.length fs) 0 frames in
  let words0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  Array.iteri
    (fun c fs ->
      Array.iteri
        (fun k f ->
          match Switchd.input t sconns.(c) ~now:0. f with
          | Ok rs -> replies.(c).(k) <- rs
          | Error e -> failwith ("replay lost framing: " ^ Codec.error_to_string e))
        fs)
    frames;
  let input_ns = float_of_int (Span.now_ns () - t0) /. float_of_int n_frames in
  let words = Gc.minor_words () -. words0 in
  let outcomes =
    Array.mapi
      (fun c ops ->
        let reader = Frame.Reader.create () in
        Array.mapi
          (fun k op ->
            if is_cell op then Loadgen.Sent
            else begin
              List.iter (Frame.Reader.feed_string reader) replies.(c).(k);
              match Frame.Reader.next reader with
              | `Msg m when Codec.req m = Some (req_id c k) -> outcome_of_reply m
              | _ -> Loadgen.Gave_up
            end)
          ops)
      ops
  in
  let report = Switchd.drain t in
  {
    r_tally = tally ops outcomes;
    input_ns;
    words_per_frame = words /. float_of_int n_frames;
    audit = report.Switchd.violations + report.Switchd.live_sessions;
  }

(* --- the workload ------------------------------------------------ *)

(* Each job is one storm over two fresh connections to the cycle's
   daemon.  Every storm ends by tearing down all its calls, so the next
   one starts from an empty switch. *)
type env = {
  ops : Loadgen.op array array;
  daemon : daemon;
  rss_mb : float option;  (** the daemon's peak RSS after its first storm *)
}

let storm ?spans env =
  let fds = connect env.daemon in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () -> run_storm ?spans env.ops fds)

let teardown env =
  let bad_drain = stop_daemon env.daemon in
  remove_files env.daemon;
  bad_drain

(* Set-up is the time to the first result: generate the storm, start
   the daemon and serve one storm, which grows the fresh daemon's heap
   to the storm's working set.  Later storms are the measured jobs.
   The daemon's peak RSS is read here: it keeps growing with every storm
   served, so read later it would depend on how many storms the run fit
   into its time. *)
let setup ~seed () =
  let env = { ops = storm_ops ~seed; daemon = start_daemon (); rss_mb = None } in
  match storm env with
  | _ -> { env with rss_mb = Metric.peak_rss_mb (Some env.daemon.pid) }
  | exception e ->
      ignore (teardown env);
      raise e

let job env =
  let s = storm env in
  {
    Workload.wall_s = s.wall_s;
    work = s.tally.requests;
    latencies_us = s.rtts_us;
    attempted = s.tally.requests;
    failed = s.faults;
    fingerprint = s.tally.digest;
  }

let spec ~seed =
  {
    Workload.setup = setup ~seed;
    job;
    teardown;
    peak_rss_mb = (fun env -> env.rss_mb);
  }

let replay_check r ~digest =
  (if String.equal r.r_tally.digest digest then []
   else [ Printf.sprintf "socket digest %s, in-process replay %s" digest r.r_tally.digest ])
  @ if r.audit > 0 then [ "in-process replay drained unclean" ] else []

(* The socket digest must equal the in-process replay's. *)
let replay_notes ~seed ~digest = replay_check (replay (storm_ops ~seed)) ~digest

(* Traced run: five pairs of an untraced then a traced storm on one
   daemon.  [trace.overhead] is the median over pairs of the traced
   storm's rate loss against its neighbour, so drift of a shared host
   between pairs cancels; the first traced storm's spans are kept.
   Then the replay. *)
let traced ~seed spans =
  let env = setup ~seed () in
  let storms, rss_after, bad_drain =
    match
      List.init 10 (fun k ->
          let spans =
            if k = 1 then Some spans else if k mod 2 = 1 then Some (Span.create ()) else None
          in
          storm ?spans env)
    with
    | storms ->
        let rss = Metric.peak_rss_mb (Some env.daemon.pid) in
        (storms, rss, teardown env)
    | exception e ->
        ignore (teardown env);
        raise e
  in
  let growth =
    match (env.rss_mb, rss_after) with
    | Some a, Some b -> (b -. a) /. float_of_int (List.length storms)
    | _ -> 0.
  in
  let rate s = float_of_int s.tally.requests /. s.wall_s in
  let rec losses = function
    | u :: t :: rest -> (1. -. (rate t /. rate u)) :: losses rest
    | _ -> []
  in
  let first = List.hd storms in
  let r = replay (storm_ops ~seed) in
  let total name = Array.fold_left ( +. ) 0. (Span.durations_ns spans name) in
  let p = Pct.percentile first.rtts_us in
  let notes =
    Workload.fingerprint_notes ~workload:"signalling" ~seed
      (List.map (fun s -> s.tally.digest) storms)
    @ replay_check r ~digest:first.tally.digest
    @
    if Pct.highest_supported ~n:(Array.length first.rtts_us) [ 50.; 90.; 99. ] = Some 99.
    then []
    else [ "too few round trips for a p99" ]
  in
  {
    Workload.layers =
      [
        ("transport.wait_share", total "wait" /. total "request");
        ("signalling.rtt_tail_ratio", p 99. /. p 50.);
        ("switchd.deny_ratio", Workload.ratio r.r_tally.denied r.r_tally.requests);
        ("loadgen.cells_per_req", Workload.ratio r.r_tally.cells r.r_tally.requests);
        ("switchd.rss_growth_mb_per_storm", growth);
        ("trace.overhead", Pct.median (Array.of_list (losses storms)));
      ]
      @ Workload.gc_metrics ~ops:first.tally.requests first.gc;
    notes;
    digest = first.tally.digest;
    attempted = List.fold_left (fun acc s -> acc + s.tally.requests) 0 storms;
    failed = List.fold_left (fun acc s -> acc + s.faults) (r.audit + bad_drain) storms;
  }
