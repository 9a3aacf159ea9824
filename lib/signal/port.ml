(* The last request id seen for a VCI and whether its delta is currently
   applied: retransmitted or duplicated RM cells of the same request
   must not double-apply, and a rolled-back request may legitimately be
   re-applied by a later retransmission.  Updated in place per request. *)
type req_state = { mutable id : int; mutable applied : bool }

(* The floats a request moves live in all-float records, which OCaml
   stores flat, so a grant writes them in place without boxing. *)
type belief = { mutable rate : float }
type acct = { mutable reserved : float }

type t = {
  capacity : float;
  acct : acct;
  rates : (int, belief) Hashtbl.t;
  last_req : (int, req_state) Hashtbl.t;
  mutable up : bool;
}

let create ~capacity () =
  assert (capacity > 0.);
  {
    capacity;
    acct = { reserved = 0. };
    rates = Hashtbl.create 64;
    last_req = Hashtbl.create 64;
    up = true;
  }

let capacity t = t.capacity
let reserved t = t.acct.reserved
let is_up t = t.up
let vci_rate t vci =
  match Hashtbl.find t.rates vci with b -> b.rate | exception Not_found -> 0.

(* The change a cell asks for: a delta is the change itself, a resync
   the distance from the believed rate.  Computed here, from the belief
   in place, so no float crosses a function boundary boxed. *)
let process t cell =
  let vci = cell.Rm_cell.vci in
  let change =
    match cell.Rm_cell.payload with
    | Rm_cell.Delta d -> d
    | Rm_cell.Resync r -> (
        match Hashtbl.find t.rates vci with
        | b -> r -. b.rate
        | exception Not_found -> r)
  in
  let a = t.acct in
  if not t.up then `Denied
  else if change <= 0. || a.reserved +. change <= t.capacity then begin
    a.reserved <- Float.max 0. (a.reserved +. change);
    (match Hashtbl.find t.rates vci with
    | b -> b.rate <- Float.max 0. (b.rate +. change)
    | exception Not_found ->
        Hashtbl.replace t.rates vci { rate = Float.max 0. change });
    `Granted
  end
  else `Denied

let process_request t ~req_id cell =
  let vci = cell.Rm_cell.vci in
  match Hashtbl.find t.last_req vci with
  | r when r.id = req_id && r.applied ->
      (* The same request again (retransmission or duplicate): it is
         already in force here, so acknowledge without reapplying. *)
      `Granted
  | r ->
      let verdict = process t cell in
      r.id <- req_id;
      r.applied <- verdict = `Granted;
      verdict
  | exception Not_found ->
      let verdict = process t cell in
      Hashtbl.replace t.last_req vci
        { id = req_id; applied = verdict = `Granted };
      verdict

let rollback_request t ~req_id cell =
  let vci = cell.Rm_cell.vci in
  match Hashtbl.find t.last_req vci with
  | r when r.id = req_id && r.applied ->
      (match process t cell with
      | `Granted -> ()
      | `Denied -> assert false
      (* undoing an increase always fits; undoing a decrease restores a
         reservation that fit before *));
      r.applied <- false
  | _ | (exception Not_found) -> ()

let release t ~vci =
  (* Return what this port believes the VCI holds: under signalling
     faults the source's view and the port's may have drifted, and
     releasing the source's figure would corrupt the other VCIs' share
     of the aggregate. *)
  let a = t.acct in
  a.reserved <- Float.max 0. (a.reserved -. vci_rate t vci);
  Hashtbl.remove t.rates vci;
  Hashtbl.remove t.last_req vci

let crash t =
  t.up <- false;
  t.acct.reserved <- 0.;
  Hashtbl.reset t.rates;
  Hashtbl.reset t.last_req

let recover t = t.up <- true

let drift t ~actual = t.acct.reserved -. actual

let view t ~index =
  {
    Rcbr_fault.Invariant.index;
    capacity = t.capacity;
    reserved = t.acct.reserved;
    vci_rates =
      List.map (fun (vci, b) -> (vci, b.rate))
        (Rcbr_util.Tables.sorted_bindings t.rates);
  }
