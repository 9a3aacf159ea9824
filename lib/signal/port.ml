(* The last request id seen for a VCI and whether its delta is currently
   applied: retransmitted or duplicated RM cells of the same request
   must not double-apply, and a rolled-back request may legitimately be
   re-applied by a later retransmission. *)
type req_state = { id : int; mutable applied : bool }

type t = {
  capacity : float;
  mutable reserved : float;
  rates : (int, float) Hashtbl.t;
  last_req : (int, req_state) Hashtbl.t;
  mutable up : bool;
}

let create ~capacity () =
  assert (capacity > 0.);
  {
    capacity;
    reserved = 0.;
    rates = Hashtbl.create 64;
    last_req = Hashtbl.create 64;
    up = true;
  }

let capacity t = t.capacity
let reserved t = t.reserved
let is_up t = t.up
let vci_rate t vci = try Hashtbl.find t.rates vci with Not_found -> 0.

let process t cell =
  let vci = cell.Rm_cell.vci in
  let change = Rm_cell.payload_rate_change cell ~current:(vci_rate t vci) in
  if not t.up then `Denied
  else if change <= 0. || t.reserved +. change <= t.capacity then begin
    t.reserved <- Float.max 0. (t.reserved +. change);
    Hashtbl.replace t.rates vci (Float.max 0. (vci_rate t vci +. change));
    `Granted
  end
  else `Denied

let process_request t ~req_id cell =
  let vci = cell.Rm_cell.vci in
  match Hashtbl.find_opt t.last_req vci with
  | Some r when r.id = req_id && r.applied ->
      (* The same request again (retransmission or duplicate): it is
         already in force here, so acknowledge without reapplying. *)
      `Granted
  | _ ->
      let verdict = process t cell in
      Hashtbl.replace t.last_req vci
        { id = req_id; applied = (verdict = `Granted) };
      verdict

let rollback_request t ~req_id cell =
  let vci = cell.Rm_cell.vci in
  match Hashtbl.find_opt t.last_req vci with
  | Some r when r.id = req_id && r.applied ->
      (match process t cell with
      | `Granted -> ()
      | `Denied -> assert false
      (* undoing an increase always fits; undoing a decrease restores a
         reservation that fit before *));
      r.applied <- false
  | _ -> ()

let release t ~vci =
  (* Return what this port believes the VCI holds: under signalling
     faults the source's view and the port's may have drifted, and
     releasing the source's figure would corrupt the other VCIs' share
     of the aggregate. *)
  t.reserved <- Float.max 0. (t.reserved -. vci_rate t vci);
  Hashtbl.remove t.rates vci;
  Hashtbl.remove t.last_req vci

let crash t =
  t.up <- false;
  t.reserved <- 0.;
  Hashtbl.reset t.rates;
  Hashtbl.reset t.last_req

let recover t = t.up <- true

let drift t ~actual = t.reserved -. actual

let view t ~index =
  {
    Rcbr_fault.Invariant.index;
    capacity = t.capacity;
    reserved = t.reserved;
    vci_rates = Rcbr_util.Tables.sorted_bindings t.rates;
  }
