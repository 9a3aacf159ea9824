module Link = Rcbr_net.Link
module Store = Rcbr_net.Store
module Controller = Rcbr_admission.Controller
module Service_model = Rcbr_policy.Service_model

type counts = {
  mutable admitted : int;
  mutable blocked : int;
  mutable attempts : int;
  mutable denied : int;
  mutable crash_denials : int;
  mutable downgrades : int;
  mutable upgrades : int;
}

let counts () =
  {
    admitted = 0;
    blocked = 0;
    attempts = 0;
    denied = 0;
    crash_denials = 0;
    downgrades = 0;
    upgrades = 0;
  }

(* Only [Downgrade]'s placement probes [fits]; under the other models
   [Controller.place] grants in full, so the [fits] closure is built
   only where it can be called. *)
let arrive ctrl model ~links store h ~now ~demanded k =
  let decision =
    match (model : Service_model.t) with
    | Service_model.Downgrade _ ->
        Controller.place ctrl model ~demanded ~fits:(fun r ->
            Store.fits ~links store h ~rate:r ~now)
    | Service_model.Renegotiate | Service_model.Mts_profile _ ->
        Service_model.Grant
  in
  match decision with
  | Service_model.Settle_floor _ ->
      Store.release store h;
      k.blocked <- k.blocked + 1;
      false
  | decision ->
      let granted = Service_model.granted_rate decision ~demanded in
      k.admitted <- k.admitted + 1;
      if Service_model.downgraded decision then begin
        k.downgrades <- k.downgrades + 1;
        Store.queue_upgrade store h
      end;
      Store.set_demanded store h demanded;
      Store.settle ~links store h ~rate:granted;
      Store.attach_mts model store h ~now;
      Controller.on_admit ctrl ~now ~call:h ~rate:granted;
      true

(* Settle semantics, as everywhere in this repo: the demand moves
   whether or not it fits, and the overload shows up in the
   accounting. *)
let change model ~links store h ~now ~demanded k =
  let increase = demanded > Store.applied store h in
  if increase then k.attempts <- k.attempts + 1;
  let d = Store.decide model ~links store h ~now ~demanded in
  let granted = Service_model.granted_rate d ~demanded in
  if Service_model.downgraded d then k.downgrades <- k.downgrades + 1;
  let denied =
    match Service_model.denial d ~increase with
    | Service_model.Not_denied -> false
    | Service_model.Denied -> true
    | Service_model.Denied_unless_fits ->
        not (Store.fits ~links store h ~rate:granted ~now)
  in
  if denied then begin
    k.denied <- k.denied + 1;
    if Store.blocked ~links store h ~now then
      k.crash_denials <- k.crash_denials + 1
  end;
  Store.settle ~links store h ~rate:granted;
  d

let upgrade ctrl ~links store h ~now ~rate k =
  k.upgrades <- k.upgrades + 1;
  Store.settle ~links store h ~rate;
  Controller.on_renegotiate ctrl ~now ~call:h ~rate

type utilization = {
  links : Link.t array;
  mutable integral : float;
  mutable last : float;
}

let utilization links = { links; integral = 0.; last = 0. }

let advance u ~now =
  let dt = now -. u.last in
  if dt > 0. then begin
    let acc = ref 0. in
    Array.iter
      (fun l ->
        acc := !acc +. Float.min 1. (l.Link.acct.demand /. l.Link.capacity))
      u.links;
    u.integral <-
      u.integral +. (!acc /. float_of_int (Array.length u.links) *. dt);
    u.last <- now
  end

let integral u = u.integral

let fnv h v = (h lxor v) * 0x100000001b3 land max_int
let fnv_float h x = fnv h (Int64.to_int (Int64.bits_of_float x) land max_int)
