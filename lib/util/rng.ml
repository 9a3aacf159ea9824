(* The splitmix64 state is 8 bytes read and written as a raw int64, so
   advancing it boxes nothing; [mix] and [bits64] are inlined into every
   draw, so the intermediate int64s stay unboxed too, and the draws
   that retry loop instead of building a local recursive closure. *)
type t = Bytes.t

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t =
  (* A second avalanche on an independent draw decorrelates the child
     stream from the parent continuation. *)
  let s = bits64 t in
  of_state (mix (Int64.logxor s 0xD1B54A32D192ED03L))

let[@inline] float t =
  (* 53 uniform bits scaled to [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for n < 2^24
     and irrelevant for simulation workloads, but we still reject the
     biased tail to keep the generator exact. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub Int64.max_int (Int64.sub n64 1L) in
  let r = ref (Int64.shift_right_logical (bits64 t) 1) in
  let v = ref (Int64.rem !r n64) in
  while Int64.sub !r !v > limit do
    r := Int64.shift_right_logical (bits64 t) 1;
    v := Int64.rem !r n64
  done;
  Int64.to_int !v

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

(* A uniform draw in (0, 1): redraw the zeros [log] cannot take. *)
let[@inline] positive t =
  let u = ref (float t) in
  while not (!u > 0.) do
    u := float t
  done;
  !u

let exponential t rate =
  assert (rate > 0.);
  -.log (positive t) /. rate

let normal t ~mu ~sigma =
  let u1 = positive t in
  let u2 = float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else int_of_float (Float.floor (log (positive t) /. log (1. -. p)))

let choose t weights =
  let n = Array.length weights in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  assert (!total > 0.);
  let target = float t *. !total in
  (* The first index whose running sum passes [target]; the last one
     takes the rounding slack. *)
  let i = ref 0 and acc = ref 0. and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. weights.(!i);
    if target < !acc then found := true else incr i
  done;
  !i
