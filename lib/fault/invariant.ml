type port_view = {
  index : int;
  capacity : float;
  reserved : float;
  vci_rates : (int * float) list;
}

type violation = { port : int; what : string }

let check ?(check_capacity = true) views =
  let out = ref [] in
  let flag port what = out := { port; what } :: !out in
  Array.iter
    (fun v ->
      let tol = 1e-6 *. Float.max 1. v.capacity in
      if v.reserved < -.tol then
        flag v.index (Printf.sprintf "negative reservation %g" v.reserved);
      if check_capacity && v.reserved > v.capacity +. tol then
        flag v.index
          (Printf.sprintf "reserved %g exceeds capacity %g" v.reserved v.capacity);
      List.iter
        (fun (vci, r) ->
          if r < -.tol then
            flag v.index (Printf.sprintf "VCI %d at negative rate %g" vci r))
        v.vci_rates;
      let sum = List.fold_left (fun acc (_, r) -> acc +. r) 0. v.vci_rates in
      if Float.abs (sum -. v.reserved) > tol then
        flag v.index
          (Printf.sprintf "aggregate %g != sum of per-VCI rates %g" v.reserved
             sum))
    views;
  List.rev !out
