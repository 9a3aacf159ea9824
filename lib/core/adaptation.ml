module Trace = Rcbr_traffic.Trace

type policy = Settle | Retry of int | Requantize of float | Reserve_peak

type result = {
  bits_offered : float;
  bits_lost : float;
  quality : float;
  attempts : int;
  failures : int;
  max_backlog : float;
  mean_reserved : float;
}

let grant_with_probability rng p ~slot:_ ~old_rate ~new_rate =
  new_rate <= old_rate || Rcbr_util.Rng.float rng < p

let simulate ~policy ~grant ~buffer ~trace schedule =
  if Trace.length trace <> Schedule.n_slots schedule then
    invalid_arg "Adaptation.simulate: length mismatch";
  if not (Float.equal (Trace.fps trace) (Schedule.fps schedule)) then
    invalid_arg "Adaptation.simulate: fps mismatch";
  assert (buffer >= 0.);
  (match policy with
  | Requantize q -> assert (q > 0. && q <= 1.)
  | Retry d -> assert (d >= 1)
  | Settle | Reserve_peak -> ());
  let n = Trace.length trace in
  let tau = Trace.slot_duration trace in
  let desired = Schedule.to_rates schedule in
  let attempts = ref 0 and failures = ref 0 in
  let granted = ref desired.(0) in
  (match policy with
  | Reserve_peak -> granted := Schedule.peak_rate schedule
  | Settle | Retry _ | Requantize _ -> ());
  (* [wanted] tracks the latest desired rate whose request failed; the
     Retry policy re-issues it periodically. *)
  let wanted = ref None in
  let retry_at = ref max_int in
  let backlog = ref 0. and max_backlog = ref 0. in
  let offered = ref 0. and lost = ref 0. and delivered_quality_bits = ref 0. in
  let reserved_integral = ref 0. in
  let request slot rate =
    incr attempts;
    if grant ~slot ~old_rate:!granted ~new_rate:rate then begin
      granted := rate;
      wanted := None;
      true
    end
    else begin
      incr failures;
      wanted := Some rate;
      (match policy with
      | Retry d -> retry_at := slot + d
      | Settle | Requantize _ | Reserve_peak -> ());
      false
    end
  in
  for t = 0 to n - 1 do
    (* Renegotiation instants: where the desired rate changes. *)
    (match policy with
    | Reserve_peak -> ()
    | Settle | Retry _ | Requantize _ ->
        if t > 0 && not (Float.equal desired.(t) desired.(t - 1)) then
          ignore (request t desired.(t))
        else begin
          match (policy, !wanted) with
          | Retry _, Some rate when t >= !retry_at -> ignore (request t rate)
          | _ -> ()
        end);
    let full = Trace.frame trace t in
    offered := !offered +. full;
    (* Requantization scales the frames the codec emits while the
       granted rate lags the desired one. *)
    let scale =
      match policy with
      | Requantize floor_q when !granted < desired.(t) && desired.(t) > 0. ->
          Float.max floor_q (!granted /. desired.(t))
      | Requantize _ | Settle | Retry _ | Reserve_peak -> 1.
    in
    let arriving = full *. scale in
    delivered_quality_bits := !delivered_quality_bits +. (full *. scale);
    let net = !backlog +. arriving -. (!granted *. tau) in
    backlog := Float.min buffer (Float.max 0. net);
    let overflow = Float.max 0. (net -. buffer) in
    lost := !lost +. overflow;
    delivered_quality_bits := !delivered_quality_bits -. overflow;
    if !backlog > !max_backlog then max_backlog := !backlog;
    reserved_integral := !reserved_integral +. (!granted *. tau)
  done;
  {
    bits_offered = !offered;
    bits_lost = !lost;
    quality = (if Float.equal !offered 0. then 1. else !delivered_quality_bits /. !offered);
    attempts = !attempts;
    failures = !failures;
    max_backlog = !max_backlog;
    mean_reserved = !reserved_integral /. (float_of_int n *. tau);
  }
