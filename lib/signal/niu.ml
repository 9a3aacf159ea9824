module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Online = Rcbr_core.Online
module Predictor = Rcbr_core.Predictor
module Plan = Rcbr_fault.Plan
module Injector = Rcbr_fault.Injector
module Invariant = Rcbr_fault.Invariant

type degrade = Ride_out | Settle | Scale of float

type faults = {
  plan : Plan.t;
  timeout_slots : int;
  max_retransmits : int;
  backoff : float;
  jitter_slots : int;
  resync_slots : int;
  degrade : degrade;
}

let default_faults plan =
  {
    plan;
    timeout_slots = 8;
    max_retransmits = 6;
    backoff = 2.;
    jitter_slots = 2;
    resync_slots = 120;
    degrade = Settle;
  }

let no_faults = { (default_faults (Plan.null ~hops:0)) with resync_slots = 0 }

type params = {
  online : Rcbr_core.Online.params;
  buffer : float;
  delay_slots : int;
  retry_slots : int option;
  faults : faults;
}

let default_params =
  {
    online = Online.default_params;
    buffer = 300_000.;
    delay_slots = 0;
    retry_slots = Some 24;
    faults = no_faults;
  }

type fault_report = {
  retransmits : int;
  timeouts : int;
  give_ups : int;
  resyncs : int;
  degraded_slots : int;
  bits_scaled : float;
  worst_retransmits : int;
  crashes : int;
  recoveries : int;
  cells : Injector.totals;
  invariant_violations : int;
  final_drift : float;
}

type outcome = {
  schedule : Rcbr_core.Schedule.t;
  bits_offered : float;
  bits_lost : float;
  max_backlog : float;
  attempts : int;
  failures : int;
  mean_reserved : float;
  faults : fault_report;
}

(* Two quantized wants denote the same renegotiation target iff they sit
   on the same rung of the rate grid — never compare the floats
   directly, a re-predicted want one ulp away must not bypass the retry
   timer. *)
let same_grid_level delta a b = Float.abs (a -. b) < 0.5 *. delta

type inflight = {
  req : Path.request;
  target : float;
  is_fallback : bool;
  mutable retx : int;
  mutable deadline : int;
}

(* The plan the stream runs under.  A null plan carries nothing per hop,
   so it is sized from the path; a lossy one must match the path and
   leave room for a healthy round-trip before its first timeout. *)
let checked_plan p f ~path =
  let o = p.online in
  assert (o.Online.b_low >= 0. && o.Online.b_high > o.Online.b_low);
  assert (o.Online.flush_slots > 0 && o.Online.granularity > 0.);
  assert (p.buffer > 0. && p.delay_slots >= 0);
  (match p.retry_slots with Some r -> assert (r >= 1) | None -> ());
  if f.max_retransmits < 0 then invalid_arg "Niu faults: max_retransmits < 0";
  if f.backoff < 1. then invalid_arg "Niu faults: backoff factor must be >= 1";
  if f.jitter_slots < 0 then invalid_arg "Niu faults: jitter_slots < 0";
  if f.resync_slots < 0 then invalid_arg "Niu faults: resync_slots < 0";
  (match f.degrade with
  | Scale q when not (q >= 0. && q <= 1.) ->
      invalid_arg "Niu faults: scale factor not in [0,1]"
  | _ -> ());
  if Plan.is_null f.plan then Plan.null ~hops:(Path.hops path)
  else begin
    if Array.length f.plan.Plan.links <> Path.hops path then
      invalid_arg
        "Niu faults: plan covers a different number of hops than the path";
    if f.timeout_slots <= p.delay_slots then
      invalid_arg
        (Printf.sprintf
           "Niu faults: timeout_slots %d must exceed the signalling delay of \
            %d slot(s), or every request times out before its response can \
            arrive"
           f.timeout_slots p.delay_slots);
    f.plan
  end

let stream p ~path trace =
  let o = p.online and f = p.faults in
  let plan = checked_plan p f ~path in
  let inj = Injector.create plan in
  let ports = Path.ports path in
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let pred =
    Predictor.ar1 ~eta:o.Online.ar_coefficient
      ~initial:(Trace.frame trace 0 /. tau)
  in
  (* [m.in_force] drains the buffer; [m.requested] is what the network
     has granted (awaiting its round-trip when they differ); [wanted] is
     a denied or abandoned request kept for retry. *)
  let m = Online.monitor ~size:p.buffer ~rate:(Path.rate path) in
  let pending = ref [] (* (effective_slot, rate) *) in
  let wanted = ref None and retry_at = ref max_int in
  let segments = ref [ { Schedule.start_slot = 0; rate = Path.rate path } ] in
  let offered = ref 0. and reserved_integral = ref 0. in
  let attempts = ref 0 and failures = ref 0 in
  (* Retransmission state machine: at most one request in flight. *)
  let inflight = ref None in
  let retransmits = ref 0 and timeouts = ref 0 and give_ups = ref 0 in
  let worst_retx = ref 0 in
  let resyncs = ref 0 in
  let degraded_slots = ref 0 and bits_scaled = ref 0. in
  let crashes = ref 0 and recoveries = ref 0 in
  let degraded = ref false in
  let accept t ~extra rate =
    m.Online.requested <- rate;
    let effective = t + p.delay_slots + extra in
    if effective <= t then begin
      m.Online.in_force <- rate;
      segments := { Schedule.start_slot = t; rate } :: !segments
    end
    else pending := !pending @ [ (effective, rate) ]
  in
  let arm_deadline t retx =
    let scaled =
      Float.ceil (float_of_int f.timeout_slots *. (f.backoff ** float_of_int retx))
    in
    t + int_of_float scaled + Injector.jitter inj f.jitter_slots
  in
  let retry_later t rate =
    wanted := Some rate;
    match p.retry_slots with
    | Some d -> retry_at := t + d
    | None -> retry_at := max_int
  in
  (* A denial concluded: remember the want, arm the retry timer, and —
     under Settle/Scale — settle for the grid level under the ER-field
     feedback (Section III-B) right away.  Ride_out keeps the old rate
     and rides on the buffer. *)
  let on_denied t rate =
    incr failures;
    retry_later t rate;
    match f.degrade with
    | Ride_out -> ()
    | Settle | Scale _ -> (
        let fallback = Online.quantize_down o (Path.available path) in
        if fallback > m.Online.requested then
          let fb = Path.request path fallback in
          match Path.transmit path ~inj fb with
          | `Granted extra -> accept t ~extra fallback
          | `Denied _ -> ()
          | `Lost ->
              inflight :=
                Some
                  {
                    req = fb;
                    target = fallback;
                    is_fallback = true;
                    retx = 0;
                    deadline = arm_deadline t 0;
                  })
  in
  let conclude t r = function
    | `Granted extra ->
        inflight := None;
        accept t ~extra r.target;
        if not r.is_fallback then begin
          wanted := None;
          degraded := false
        end
    | `Denied (_hop, _er) ->
        inflight := None;
        if not r.is_fallback then on_denied t r.target
    | `Lost -> r.deadline <- arm_deadline t r.retx
  in
  let send_request t rate =
    incr attempts;
    let req = Path.request path rate in
    match Path.transmit path ~inj req with
    | `Granted extra ->
        accept t ~extra rate;
        wanted := None;
        degraded := false
    | `Denied _ -> on_denied t rate
    | `Lost ->
        inflight :=
          Some
            {
              req;
              target = rate;
              is_fallback = false;
              retx = 0;
              deadline = arm_deadline t 0;
            }
  in
  for t = 0 to n - 1 do
    (* Planned switch failures: a crashing port loses its reservations
       and state; on recovery it re-admits from empty (our resync cells
       rebuild its belief). *)
    (match plan.Plan.crashes with
    | [] -> ()
    | planned ->
        List.iter
          (fun c ->
            if c.Plan.at_slot = t then begin
              Port.crash ports.(c.Plan.hop);
              incr crashes
            end;
            if c.Plan.recover_slot = t then begin
              Port.recover ports.(c.Plan.hop);
              incr recoveries
            end)
          planned);
    (* A granted renegotiation comes into force. *)
    (match !pending with
    | (at, rate) :: rest when at <= t ->
        m.Online.in_force <- rate;
        pending := rest;
        segments := { Schedule.start_slot = t; rate } :: !segments
    | _ -> ());
    (* Timeout: retransmit the same request (bounded, with exponential
       backoff and jitter), or give up and degrade. *)
    (match !inflight with
    | Some r when t >= r.deadline ->
        incr timeouts;
        if r.retx >= f.max_retransmits then begin
          incr give_ups;
          inflight := None;
          if not r.is_fallback then begin
            retry_later t r.target;
            degraded := true
          end
        end
        else begin
          r.retx <- r.retx + 1;
          incr retransmits;
          if r.retx > !worst_retx then worst_retx := r.retx;
          conclude t r (Path.transmit path ~inj r.req)
        end
    | _ -> ());
    (* Retry a previously denied (or abandoned) want. *)
    (match (!wanted, !inflight) with
    | Some rate, None when t >= !retry_at -> send_request t rate
    | _ -> ());
    (* Periodic absolute-rate resync repairs drift, leaked rollbacks and
       crashed-and-recovered hops; only while nothing is in flight so it
       cannot race an unresolved delta. *)
    if
      f.resync_slots > 0
      && t > 0
      && t mod f.resync_slots = 0
      && !inflight = None
    then begin
      Path.resync path ~inj;
      incr resyncs
    end;
    let is_degraded = !degraded || Option.is_some !wanted in
    if is_degraded then incr degraded_slots;
    let bits = Trace.frame trace t in
    offered := !offered +. bits;
    pred.Predictor.observe (bits /. tau);
    let forecast = pred.Predictor.forecast () in
    (* Quality scaling: while degraded and starved, shed a fraction of
       the offered bits at the source instead of overflowing the
       buffer. *)
    let urged =
      match (f.degrade, !wanted) with
      | Scale q, Some w when w > m.Online.requested ->
          let shed = q *. bits in
          bits_scaled := !bits_scaled +. shed;
          Online.slot o m ~tau ~bits:(bits -. shed) ~forecast
      | _ -> Online.slot o m ~tau ~bits ~forecast
    in
    reserved_integral := !reserved_integral +. (m.Online.in_force *. tau);
    if t + 1 < n && urged && !pending = [] && !inflight = None then begin
      (* Rate-limit the signalling: a want that was just denied waits
         for its retry timer instead of hammering the switches every
         slot. *)
      let want = m.Online.want in
      let already_denied =
        match !wanted with
        | Some w ->
            same_grid_level o.Online.granularity w want && t + 1 < !retry_at
        | None -> false
      in
      if not already_denied then send_request (t + 1) want
    end
  done;
  let views = Array.mapi (fun i port -> Port.view port ~index:i) ports in
  let violations = Invariant.check views in
  let final_drift =
    Array.fold_left
      (fun acc port ->
        let belief = Port.vci_rate port (Path.vci path) in
        Float.max acc (Float.abs (belief -. m.Online.requested)))
      0. ports
  in
  let schedule =
    Schedule.create ~fps:(Trace.fps trace) ~n_slots:n (List.rev !segments)
  in
  {
    schedule;
    bits_offered = !offered;
    bits_lost = m.Online.lost;
    max_backlog = m.Online.max_backlog;
    attempts = !attempts;
    failures = !failures;
    mean_reserved = !reserved_integral /. (float_of_int n *. tau);
    faults =
      {
        retransmits = !retransmits;
        timeouts = !timeouts;
        give_ups = !give_ups;
        resyncs = !resyncs;
        degraded_slots = !degraded_slots;
        bits_scaled = !bits_scaled;
        worst_retransmits = !worst_retx;
        crashes = !crashes;
        recoveries = !recoveries;
        cells = Injector.totals inj;
        invariant_violations = List.length violations;
        final_drift;
      };
  }
