module Trace = Rcbr_traffic.Trace

type result = {
  bits_offered : float;
  bits_lost : float;
  max_backlog : float;
  final_backlog : float;
}

let loss_fraction r =
  if Float.equal r.bits_offered 0. then 0. else r.bits_lost /. r.bits_offered

let run_per_slot ~capacity ~slots ~arrival ~drain_per_slot =
  (* Paper convention (formula (3)): arrivals and service within a slot
     net out, and the post-drain backlog must fit the buffer; the excess
     is lost. *)
  let backlog = ref 0. in
  let offered = ref 0. and lost = ref 0. and peak = ref 0. in
  for i = 0 to slots - 1 do
    let bits = arrival i in
    offered := !offered +. bits;
    let net = !backlog +. bits -. drain_per_slot i in
    backlog := Float.min capacity (Float.max 0. net);
    lost := !lost +. Float.max 0. (net -. capacity);
    if !backlog > !peak then peak := !backlog
  done;
  {
    bits_offered = !offered;
    bits_lost = !lost;
    max_backlog = !peak;
    final_backlog = !backlog;
  }

(* Constant drain over a flat array, without the per-slot closure calls
   of [run_per_slot]: this is the inner kernel of every sigma-rho and
   SMG bisection, executed ~30 times per search point. *)
let run_constant_array ~capacity ~per_slot frames =
  let backlog = ref 0. in
  let offered = ref 0. and lost = ref 0. and peak = ref 0. in
  for i = 0 to Array.length frames - 1 do
    let bits = frames.(i) in
    offered := !offered +. bits;
    let net = !backlog +. bits -. per_slot in
    backlog := Float.min capacity (Float.max 0. net);
    lost := !lost +. Float.max 0. (net -. capacity);
    if !backlog > !peak then peak := !backlog
  done;
  {
    bits_offered = !offered;
    bits_lost = !lost;
    max_backlog = !peak;
    final_backlog = !backlog;
  }

let run_constant ~capacity ~rate trace =
  assert (rate >= 0.);
  let per_slot = rate /. Trace.fps trace in
  run_constant_array ~capacity ~per_slot (Trace.raw_frames trace)

let run_schedule ~capacity ~rate_per_slot trace =
  let dt = Trace.slot_duration trace in
  run_per_slot ~capacity ~slots:(Trace.length trace)
    ~arrival:(fun i -> Trace.frame trace i)
    ~drain_per_slot:(fun i -> rate_per_slot i *. dt)

let run_aggregate ~capacity ~rate ~fps sources =
  assert (rate >= 0. && fps > 0.);
  assert (Array.length sources > 0);
  let n = Array.length sources.(0) in
  Array.iter (fun s -> assert (Array.length s = n)) sources;
  let per_slot = rate /. fps in
  if Array.length sources = 1 then
    run_constant_array ~capacity ~per_slot sources.(0)
  else
    run_per_slot ~capacity ~slots:n
      ~arrival:(fun i -> Array.fold_left (fun acc s -> acc +. s.(i)) 0. sources)
      ~drain_per_slot:(fun _ -> per_slot)
