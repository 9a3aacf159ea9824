type payload = Delta of float | Resync of float
type t = { vci : int; payload : payload }

let delta ~vci d = { vci; payload = Delta d }

let resync ~vci r =
  assert (r >= 0.);
  { vci; payload = Resync r }
