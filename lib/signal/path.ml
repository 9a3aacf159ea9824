module Injector = Rcbr_fault.Injector

type t = {
  ports : Port.t array;
  vci : int;
  mutable rate : float;
  mutable last_id : int;  (* requests are numbered 1, 2, ... *)
}

type request = { id : int; target : float; cell : Rm_cell.t; undo : Rm_cell.t }

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

let request t target =
  assert (target >= 0.);
  t.last_id <- t.last_id + 1;
  {
    id = t.last_id;
    target;
    cell = Rm_cell.delta ~vci:t.vci (target -. t.rate);
    undo = Rm_cell.delta ~vci:t.vci (t.rate -. target);
  }

(* --- The hop walk ------------------------------------------------------ *)

(* What a hop does with a cell that reaches it: apply request [req_id]
   (idempotently), roll it back, let its grant pass, or snap the port's
   belief to a resync cell's absolute rate. *)
type action = Apply | Undo | Pass | Snap

(* Delays are nonnegative, so negative answers name what stopped a
   cell: [lost], or [denied_at hop]. *)
let lost = -1
let denied_at hop = -2 - hop

(* One traversal of the link into [hop]: the injector decides the cell's
   fate, and a cell that survives it onto a port that is up has [action]
   applied once, and again right behind for a duplicate.  Returns the
   extra delay, [lost], or [denied_at hop] when the port refuses an
   [Apply]. *)
let cross t inj action ~req_id cell hop =
  match Injector.fate inj ~hop with
  | Injector.Drop -> lost
  | fate ->
      let port = t.ports.(hop) in
      if not (Port.is_up port) then lost
      else begin
        let granted = ref true in
        for _ = 1 to (match fate with Injector.Duplicate -> 2 | _ -> 1) do
          match action with
          | Apply -> (
              match Port.process_request port ~req_id cell with
              | `Granted -> granted := true
              | `Denied -> granted := false)
          | Undo -> Port.rollback_request port ~req_id cell
          | Pass -> ()
          | Snap -> ignore (Port.process port cell)
        done;
        if not !granted then denied_at hop
        else match fate with Injector.Delay d -> d | _ -> 0
      end

(* The response crossing hops [hop], [hop - 1], ..., 0 back to the
   source: the delay it picked up on the way, or [lost]. *)
let rec back t inj action ~req_id cell hop extra =
  if hop < 0 then extra
  else
    let d = cross t inj action ~req_id cell hop in
    if d < 0 then lost else back t inj action ~req_id cell (hop - 1) (extra + d)

(* The request walk: [req]'s cell crosses the hops in order and turns
   around after the last hop or at the hop that denies it; the response
   crosses back to the source, rolling the request back at each hop it
   passes after a denial.  Returns the summed delay of a grant that
   reached the source, [lost] when the cell or its response vanished
   (each hop already passed keeps what it did), or [denied_at hop] once
   the denial is back. *)
let rec walk t inj req hop extra =
  let req_id = req.id in
  if hop = Array.length t.ports then
    back t inj Pass ~req_id req.cell (hop - 1) extra
  else
    let d = cross t inj Apply ~req_id req.cell hop in
    if d >= 0 then walk t inj req (hop + 1) (extra + d)
    else if d = lost then lost
    else if back t inj Undo ~req_id req.undo (hop - 1) 0 = lost then lost
    else d

let transmit t ~inj req =
  let r = walk t inj req 0 0 in
  if r >= 0 then begin
    t.rate <- req.target;
    `Granted r
  end
  else if r = lost then `Lost
  else
    (* [r = denied_at hop]; the denying hop's explicit-rate feedback is
       the most this VCI could hold there. *)
    let hop = -2 - r in
    let port = t.ports.(hop) in
    let er =
      Port.capacity port -. Port.reserved port +. Port.vci_rate port t.vci
    in
    `Denied (hop, Float.max 0. er)

(* Fire and forget: each hop the cell reaches snaps its belief to the
   absolute rate (an increase past a full port is refused and left for
   the next round); a loss abandons the remaining hops this round.  A
   resync cell belongs to no request, so [req_id] is unread. *)
let resync t ~inj =
  let cell = Rm_cell.resync ~vci:t.vci t.rate in
  let rec forward hop =
    if hop < Array.length t.ports && cross t inj Snap ~req_id:0 cell hop >= 0
    then forward (hop + 1)
  in
  forward 0

let teardown t =
  Array.iter (fun port -> Port.release port ~vci:t.vci) t.ports;
  t.rate <- 0.

(* Setup is the path's first request, over a plane that loses nothing:
   only a port that is down can swallow it, and that port is where
   admission failed.  On failure each hop the request reached is
   released: the hops a lost cell passed hold the delta, the hops a
   denial rolled back and the denying hop hold only the request's id.
   Hops past the failure are left alone. *)
let create port_list ~vci ~initial_rate =
  let t = { ports = Array.of_list port_list; vci; rate = 0.; last_id = 0 } in
  let inj = Injector.create (Rcbr_fault.Plan.null ~hops:(hops t)) in
  let fail ~reached hop =
    for i = 0 to reached - 1 do
      Port.release t.ports.(i) ~vci
    done;
    Error (`Denied_at hop)
  in
  match transmit t ~inj (request t initial_rate) with
  | `Granted _ -> Ok t
  | `Denied (hop, _) -> fail ~reached:(hop + 1) hop
  | `Lost ->
      let rec down hop =
        if Port.is_up t.ports.(hop) then down (hop + 1) else hop
      in
      let hop = down 0 in
      fail ~reached:hop hop

let create_exn ports ~vci ~initial_rate =
  match create ports ~vci ~initial_rate with
  | Ok t -> t
  | Error (`Denied_at hop) ->
      failwith (Printf.sprintf "Path.create: admission denied at hop %d" hop)
