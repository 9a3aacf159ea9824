module Injector = Rcbr_fault.Injector

type t = { ports : Port.t array; vci : int; mutable rate : float }

let create port_list ~vci ~initial_rate =
  assert (initial_rate >= 0.);
  let ports = Array.of_list port_list in
  let denied = ref (-1) in
  (try
     Array.iteri
       (fun i port ->
         match Port.process port (Rm_cell.delta ~vci initial_rate) with
         | `Granted -> ()
         | `Denied ->
             denied := i;
             raise Exit)
       ports
   with Exit -> ());
  if !denied >= 0 then begin
    for i = 0 to !denied - 1 do
      Port.release ports.(i) ~vci ~rate:initial_rate
    done;
    Error (`Denied_at !denied)
  end
  else Ok { ports; vci; rate = initial_rate }

let create_exn ports ~vci ~initial_rate =
  match create ports ~vci ~initial_rate with
  | Ok t -> t
  | Error (`Denied_at hop) ->
      failwith (Printf.sprintf "Path.create: admission denied at hop %d" hop)

let hops t = Array.length t.ports
let rate t = t.rate
let vci t = t.vci
let ports t = t.ports

let available t =
  Array.fold_left
    (fun acc port ->
      Float.min acc (Port.capacity port -. Port.reserved port))
    infinity t.ports
  +. t.rate

let renegotiate t new_rate =
  assert (new_rate >= 0.);
  let delta = new_rate -. t.rate in
  let cell = Rm_cell.delta ~vci:t.vci delta in
  let denied = ref (-1) in
  (try
     Array.iteri
       (fun i port ->
         match Port.process port cell with
         | `Granted -> ()
         | `Denied ->
             denied := i;
             raise Exit)
       t.ports
   with Exit -> ());
  if !denied < 0 then begin
    t.rate <- new_rate;
    `Granted
  end
  else begin
    (* Roll back the hops that had already granted the delta. *)
    let undo = Rm_cell.delta ~vci:t.vci (-.delta) in
    for i = 0 to !denied - 1 do
      match Port.process t.ports.(i) undo with
      | `Granted -> ()
      | `Denied -> assert false
      (* undoing an increase always fits; undoing a decrease restores a
         reservation that fit before *)
    done;
    `Denied_at !denied
  end

(* --- Fault-aware signalling ------------------------------------------ *)

type request = { id : int; target : float; cell : Rm_cell.t; undo : Rm_cell.t }

let request t ~id target =
  assert (target >= 0.);
  {
    id;
    target;
    cell = Rm_cell.delta ~vci:t.vci (target -. t.rate);
    undo = Rm_cell.delta ~vci:t.vci (t.rate -. target);
  }

(* One traversal of the link into [hop]; [apply] is run once for a
   delivered cell and again, immediately behind it, for a duplicated
   one.  Returns the extra delivery delay, or None if the cell (or the
   port under it) is gone. *)
let traverse inj port ~hop ~apply =
  match Injector.fate inj ~hop with
  | Injector.Drop -> None
  | f ->
      if not (Port.is_up port) then None
      else begin
        apply ();
        (match f with Injector.Duplicate -> apply () | _ -> ());
        Some (match f with Injector.Delay d -> d | _ -> 0)
      end

let transmit t ~inj req =
  let n = Array.length t.ports in
  (* The request cell walks the hops in order; each grants (applying the
     delta, idempotently) and forwards, or denies and turns the cell
     around. *)
  let rec forward i extra =
    if i = n then `Through extra
    else
      let port = t.ports.(i) in
      let verdict = ref `Denied in
      match
        traverse inj port ~hop:i ~apply:(fun () ->
            verdict := Port.process_request port ~req_id:req.id req.cell)
      with
      | None -> `Lost_fwd
      | Some d -> (
          match !verdict with
          | `Granted -> forward (i + 1) (extra + d)
          | `Denied -> `Denied_here (i, extra + d))
  in
  (* The response travels back towards the source.  A denial rolls back
     each hop it passes; if it is lost mid-way the unreached hops keep
     the delta — a leak the periodic resync later repairs.  A lost
     response of either kind leaves the source to its timeout, and the
     retransmission is harmless thanks to request-id idempotency. *)
  let rec backward ~rolling j extra =
    if j < 0 then `Arrived extra
    else
      let port = t.ports.(j) in
      match
        traverse inj port ~hop:j ~apply:(fun () ->
            if rolling then Port.rollback_request port ~req_id:req.id req.undo)
      with
      | None -> `Lost_back
      | Some d -> backward ~rolling (j - 1) (extra + d)
  in
  match forward 0 0 with
  | `Lost_fwd -> `Lost
  | `Denied_here (i, extra) -> (
      let er =
        Float.max 0.
          (Port.capacity t.ports.(i) -. Port.reserved t.ports.(i)
          +. Port.vci_rate t.ports.(i) t.vci)
      in
      match backward ~rolling:true (i - 1) extra with
      | `Arrived _ -> `Denied (i, er)
      | `Lost_back -> `Lost)
  | `Through extra -> (
      match backward ~rolling:false (n - 1) extra with
      | `Arrived extra ->
          t.rate <- req.target;
          `Granted extra
      | `Lost_back -> `Lost)

let resync t ~inj =
  let cell = Rm_cell.resync ~vci:t.vci t.rate in
  let n = Array.length t.ports in
  (* Fire and forget: each hop the cell reaches snaps its belief to the
     absolute rate (an increase past a full port is refused and left for
     the next round).  A drop abandons the remaining hops this round. *)
  let rec forward i =
    if i < n then
      match
        traverse inj t.ports.(i) ~hop:i ~apply:(fun () ->
            ignore (Port.process t.ports.(i) cell))
      with
      | None -> ()
      | Some _ -> forward (i + 1)
  in
  forward 0

let teardown t =
  Array.iter (fun port -> Port.release port ~vci:t.vci ~rate:t.rate) t.ports;
  t.rate <- 0.
