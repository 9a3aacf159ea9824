type kind = I | P | B

type pattern = {
  kinds : kind array;
  weight_i : float;
  weight_p : float;
  weight_b : float;
}

let make ~kinds ~weight_i ~weight_p ~weight_b =
  assert (Array.length kinds > 0);
  assert (weight_i > 0. && weight_p > 0. && weight_b > 0.);
  { kinds = Array.copy kinds; weight_i; weight_p; weight_b }

let kind_at p i = p.kinds.(i mod Array.length p.kinds)

let weight_of p = function
  | I -> p.weight_i
  | P -> p.weight_p
  | B -> p.weight_b

let weight_at p i = weight_of p (kind_at p i)

let mean_weight p =
  let acc = Array.fold_left (fun a k -> a +. weight_of p k) 0. p.kinds in
  acc /. float_of_int (Array.length p.kinds)
