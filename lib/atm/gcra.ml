type t = { increment : float; cdvt : float; mutable tat : float }

let create ~rate ?cdvt () =
  assert (rate > 0.);
  let increment = 1. /. Cell.cell_rate ~rate in
  let cdvt = match cdvt with None -> increment | Some c -> c in
  assert (cdvt >= 0.);
  { increment; cdvt; tat = 0. }

let conforming t at =
  if at < t.tat -. t.cdvt then false
  else begin
    t.tat <- Float.max at t.tat +. t.increment;
    true
  end
