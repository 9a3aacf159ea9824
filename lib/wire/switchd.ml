module Topology = Rcbr_net.Topology
module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller

type config = {
  topology : Topology.t;
  controller : Controller.t option;
}

let default_config topology = { topology; controller = None }

type stats = {
  mutable setups : int;
  mutable renegotiations : int;
  mutable teardowns : int;
  mutable deltas : int;
  mutable resyncs : int;
  mutable audits : int;
  mutable denials : int;
  mutable duplicates : int;
  mutable decode_errors : int;
  mutable stray_cells : int;
  mutable unexpected : int;
  mutable underflows : int;
}

type t = {
  config : config;
  links : Link.t array;
  store : Store.t;
  calls : (int, Store.handle) Hashtbl.t;  (* call id -> store handle *)
  stats : stats;
  mutable draining : bool;
}

let create config =
  {
    config;
    links = Link.of_topology config.topology;
    store = Store.create ();
    calls = Hashtbl.create 64;
    stats =
      {
        setups = 0;
        renegotiations = 0;
        teardowns = 0;
        deltas = 0;
        resyncs = 0;
        audits = 0;
        denials = 0;
        duplicates = 0;
        decode_errors = 0;
        stray_cells = 0;
        unexpected = 0;
        underflows = 0;
      };
    draining = false;
  }

let stats t = t.stats
(* lint: allow R001 — probe: the switchd tests check link demand *)
let links t = t.links
(* lint: allow R001 — probe: the switchd tests check the live call count *)
let sessions t = Store.live_count t.store
let audit t = Store.audit ~links:t.links t.store

let total_demand t =
  Array.fold_left (fun acc l -> acc +. l.Link.acct.demand) 0. t.links

(* --- connections ------------------------------------------------------ *)

type conn = {
  reader : Frame.Reader.t;
  seen : (int, Codec.t) Hashtbl.t;  (* request id -> cached reply *)
}

let connect (_ : t) = { reader = Frame.Reader.create (); seen = Hashtbl.create 32 }

(* --- dispatch --------------------------------------------------------- *)

let route_valid t route =
  Array.for_all
    (fun id -> id >= 0 && id < Array.length t.links)
    route

let deny t ~req reason =
  t.stats.denials <- t.stats.denials + 1;
  Some (Codec.Deny { req; reason })

let do_setup t ~now ~req ~call ~route ~transit ~rate =
  t.stats.setups <- t.stats.setups + 1;
  if t.draining then deny t ~req Codec.Draining
  else if Hashtbl.mem t.calls call then deny t ~req Codec.Duplicate_call
  else if not (route_valid t route) then deny t ~req Codec.Bad_route
  else begin
    (* The fit checks need the call's route in the store; a denied
       setup hands the handle straight back. *)
    let h = Store.acquire t.store ~id:call ~route ~transit in
    let refuse reason =
      Store.release t.store h;
      deny t ~req reason
    in
    if Store.blocked ~links:t.links t.store h ~now then refuse Codec.Blackout
    else
      let admitted =
        match t.config.controller with
        | Some c -> Controller.admit c ~now
        | None -> true
      in
      if not (admitted && Store.fits ~links:t.links t.store h ~rate ~now) then
        refuse Codec.Capacity
      else begin
        Store.advance ~links:t.links t.store h ~now;
        Store.settle ~links:t.links t.store h ~rate;
        Array.iter
          (fun id ->
            t.links.(id).Link.n_calls <- t.links.(id).Link.n_calls + 1)
          route;
        Hashtbl.replace t.calls call h;
        (match t.config.controller with
        | Some c -> Controller.on_admit c ~now ~call:h ~rate
        | None -> ());
        Some (Codec.Ack { req; applied = rate })
      end
  end

(* Every rate change of a live call: integrate its route links up to
   [now] under the old demand, settle the new rate, and tell the
   controller, whichever message carried the change. *)
let move t ~now h ~rate =
  Store.advance ~links:t.links t.store h ~now;
  Store.settle ~links:t.links t.store h ~rate;
  match t.config.controller with
  | Some c -> Controller.on_renegotiate c ~now ~call:h ~rate
  | None -> ()

let do_renegotiate t ~now ~req ~call ~rate =
  t.stats.renegotiations <- t.stats.renegotiations + 1;
  match Hashtbl.find_opt t.calls call with
  | None -> deny t ~req Codec.Unknown_call
  | Some h ->
      if Store.blocked ~links:t.links t.store h ~now then
        deny t ~req Codec.Blackout
      else if rate > Store.applied t.store h
              && not (Store.fits ~links:t.links t.store h ~rate ~now)
      then deny t ~req Codec.Capacity
      else begin
        move t ~now h ~rate;
        Some (Codec.Ack { req; applied = rate })
      end

let do_teardown t ~now ~req ~call =
  t.stats.teardowns <- t.stats.teardowns + 1;
  match Hashtbl.find_opt t.calls call with
  | None -> deny t ~req Codec.Unknown_call
  | Some h ->
      Store.advance ~links:t.links t.store h ~now;
      Store.settle ~links:t.links t.store h ~rate:0.;
      Store.route_iter t.store h (fun id ->
          t.links.(id).Link.n_calls <- t.links.(id).Link.n_calls - 1);
      Store.release t.store h;
      Hashtbl.remove t.calls call;
      (match t.config.controller with
      | Some c -> Controller.on_depart c ~now ~call:h
      | None -> ());
      Some (Codec.Ack { req; applied = 0. })

(* RM cells apply with settle semantics — the demand moves whether or
   not it fits, exactly as in the simulators' fault path; overload shows
   up in the link accounting, never as a lost update. *)
let do_delta t ~now ~vci ~delta =
  t.stats.deltas <- t.stats.deltas + 1;
  (match Hashtbl.find_opt t.calls vci with
  | None -> t.stats.stray_cells <- t.stats.stray_cells + 1
  | Some h ->
      let next = Store.applied t.store h +. delta in
      let next =
        if next < 0. then begin
          t.stats.underflows <- t.stats.underflows + 1;
          0.
        end
        else next
      in
      move t ~now h ~rate:next);
  None

let do_resync t ~now ~vci ~rate =
  t.stats.resyncs <- t.stats.resyncs + 1;
  (match Hashtbl.find_opt t.calls vci with
  | None -> t.stats.stray_cells <- t.stats.stray_cells + 1
  | Some h -> move t ~now h ~rate);
  None

let do_audit t ~req =
  t.stats.audits <- t.stats.audits + 1;
  Some
    (Codec.Audit_reply
       {
         req;
         sessions = Store.live_count t.store;
         violations = audit t;
         demand = total_demand t;
       })

let dispatch t ~now (msg : Codec.t) =
  match msg with
  | Codec.Delta { vci; delta } -> do_delta t ~now ~vci ~delta
  | Codec.Resync { vci; rate } -> do_resync t ~now ~vci ~rate
  | Codec.Setup { req; call; route; transit; rate } ->
      do_setup t ~now ~req ~call ~route ~transit ~rate
  | Codec.Renegotiate { req; call; rate } -> do_renegotiate t ~now ~req ~call ~rate
  | Codec.Teardown { req; call } -> do_teardown t ~now ~req ~call
  | Codec.Audit_request { req } -> do_audit t ~req
  | Codec.Ack _ | Codec.Deny _ | Codec.Audit_reply _ ->
      (* Reply-typed traffic from a client is protocol misuse; drop it
         rather than guessing. *)
      t.stats.unexpected <- t.stats.unexpected + 1;
      None

let handle t conn ~now msg =
  match Codec.req msg with
  | Some req when Hashtbl.mem conn.seen req ->
      t.stats.duplicates <- t.stats.duplicates + 1;
      Hashtbl.find_opt conn.seen req
  | req ->
      let reply = dispatch t ~now msg in
      (match (req, reply) with
      | Some req, Some reply -> Hashtbl.replace conn.seen req reply
      | _ -> ());
      reply

(* Serve every complete frame the reader holds, handing each reply
   frame to [reply] as soon as it is made. *)
let rec pump t conn ~now reply =
  match Frame.Reader.next conn.reader with
  | `Await -> Ok ()
  | `Fatal e -> Error e
  | `Error _ ->
      t.stats.decode_errors <- t.stats.decode_errors + 1;
      pump t conn ~now reply
  | `Msg msg ->
      (match handle t conn ~now msg with
      | None -> ()
      | Some r -> reply (Codec.frame r));
      pump t conn ~now reply

let feed t conn ~now b ~off ~len reply =
  Frame.Reader.feed conn.reader b ~off ~len;
  pump t conn ~now reply

let input t conn ~now bytes_str =
  Frame.Reader.feed_string conn.reader bytes_str;
  let out = ref [] in
  pump t conn ~now (fun f -> out := f :: !out) |> Result.map (fun () -> List.rev !out)

(* --- drain ------------------------------------------------------------ *)

type drain_report = { live_sessions : int; violations : int; demand : float }

let drain t =
  t.draining <- true;
  {
    live_sessions = Store.live_count t.store;
    violations = audit t;
    demand = total_demand t;
  }
