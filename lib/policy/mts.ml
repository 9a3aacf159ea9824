module Token_bucket = Rcbr_traffic.Token_bucket
module Schedule = Rcbr_core.Schedule

type profile = {
  rates : float array;
  depths : float array;
  quantum : float;
}

let validate p =
  assert (Array.length p.rates >= 1);
  assert (Array.length p.rates = Array.length p.depths);
  assert (p.quantum > 0.);
  Array.iter (fun r -> assert (r >= 0.)) p.rates;
  Array.iter (fun d -> assert (d >= 0.)) p.depths

let ladder ~scales ~quantum ~mean ~peak =
  assert (scales >= 1 && quantum > 0.);
  assert (mean >= 0. && peak >= mean);
  (* Scale 0 polices the shortest time scale at the peak rate with one
     quantum of burst credit; the last scale polices the long-run mean
     with a deep bucket.  Rates interpolate linearly between the two,
     characteristic times grow geometrically (x4 per scale). *)
  let rates =
    Array.init scales (fun i ->
        if scales = 1 then mean
        else
          let f = float_of_int i /. float_of_int (scales - 1) in
          peak +. (f *. (mean -. peak)))
  in
  let depths =
    Array.init scales (fun i -> rates.(i) *. quantum *. (4. ** float_of_int i))
  in
  let p = { rates; depths; quantum } in
  validate p;
  p

let of_schedule schedule ~scales ~base_window =
  assert (scales >= 1 && base_window >= 1);
  let rates_per_slot = Schedule.to_rates schedule in
  let n = Array.length rates_per_slot in
  let fps = Schedule.fps schedule in
  let slot = 1. /. fps in
  (* Scale [i] polices windows of [base_window * 4^i] slots: its token
     rate is the largest average the schedule itself sustains over any
     such window (so the deriving schedule always conforms), its depth
     one window of burst above that rate at the schedule's peak. *)
  let window_mean w =
    let w = min w n in
    let sum = ref 0. in
    for k = 0 to w - 1 do
      sum := !sum +. rates_per_slot.(k)
    done;
    let best = ref !sum in
    for k = w to n - 1 do
      sum := !sum +. rates_per_slot.(k) -. rates_per_slot.(k - w);
      if !sum > !best then best := !sum
    done;
    !best /. float_of_int w
  in
  let peak = Schedule.peak_rate schedule in
  let rates = Array.make scales 0. in
  let depths = Array.make scales 0. in
  for i = 0 to scales - 1 do
    let w = base_window * int_of_float (4. ** float_of_int i) in
    let r = window_mean w in
    rates.(i) <- r;
    depths.(i) <- Float.max (r *. slot) ((peak -. r) *. float_of_int w *. slot)
  done;
  let p = { rates; depths; quantum = slot *. float_of_int base_window } in
  validate p;
  p

let attach p =
  Array.init (Array.length p.rates) (fun i ->
      Token_bucket.create ~rate:p.rates.(i) ~depth:p.depths.(i))

let police p buckets ~elapsed ~applied ~demanded =
  assert (Array.length buckets = Array.length p.rates);
  (* Settle the elapsed interval: tokens accrued at the profile rate
     were spent at the applied rate; a bucket that cannot cover the
     spend empties (sustained non-conformance carries no debt). *)
  if elapsed > 0. then
    Array.iter
      (fun b ->
        Token_bucket.refill b ~dt:elapsed;
        let spent = applied *. elapsed in
        if not (Token_bucket.try_consume b spent) then
          ignore (Token_bucket.try_consume b (Token_bucket.tokens b)))
      buckets;
  (* Grant the largest rate every time scale can sustain for one
     quantum: token rate plus the stored burst credit amortized over
     the quantum. *)
  Array.fold_left
    (fun g b ->
      Float.min g
        (Token_bucket.rate b +. (Token_bucket.tokens b /. p.quantum)))
    demanded buckets
