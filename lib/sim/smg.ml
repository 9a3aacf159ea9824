module Trace = Rcbr_traffic.Trace
module Schedule = Rcbr_core.Schedule
module Fluid = Rcbr_queue.Fluid
module Sigma_rho = Rcbr_queue.Sigma_rho
module Rng = Rcbr_util.Rng
module Numeric = Rcbr_util.Numeric
module Pool = Rcbr_util.Pool

type config = {
  trace : Rcbr_traffic.Trace.t;
  schedule : Rcbr_core.Schedule.t;
  buffer : float;
  target_loss : float;
  replications : int;
  seed : int;
}

let validate c =
  if Schedule.n_slots c.schedule <> Trace.length c.trace then
    invalid_arg "Smg: schedule/trace length mismatch";
  if not (Float.equal (Schedule.fps c.schedule) (Trace.fps c.trace)) then
    invalid_arg "Smg: schedule/trace fps mismatch";
  if c.buffer <= 0. then invalid_arg "Smg: buffer";
  if c.target_loss < 0. then invalid_arg "Smg: target_loss";
  if c.replications <= 0 then invalid_arg "Smg: replications"

let min_capacity_cbr c =
  validate c;
  Sigma_rho.min_rate ~trace:c.trace ~buffer:c.buffer
    ~target_loss:c.target_loss ()

(* Random phases for one replication: stream 0 keeps phase 0 so a single
   stream reproduces the unshifted workload. *)
let phases rng ~n ~slots =
  Array.init n (fun i -> if i = 0 then 0 else Rng.int rng slots)

(* Replications are independent given their generator, so each gets a
   sequentially pre-split child stream and the replication bodies run on
   the pool: the result is bit-identical for every jobs count. *)
let split_rngs ~seed ~replications =
  let master = Rng.create seed in
  Array.init replications (fun _ -> Rng.split master)

let shared_aggregates ?pool c ~n =
  let slots = Trace.length c.trace in
  let frames = Trace.raw_frames c.trace in
  let rngs = split_rngs ~seed:c.seed ~replications:c.replications in
  Pool.map_array ?pool
    (fun rng ->
      let ph = phases rng ~n ~slots in
      let agg = Array.make slots 0. in
      Array.iter
        (fun shift ->
          for i = 0 to slots - 1 do
            agg.(i) <- agg.(i) +. frames.((i + shift) mod slots)
          done)
        ph;
      agg)
    rngs

let shared_loss_of_aggregates c ~n aggregates capacity_per_stream =
  let fn = float_of_int n in
  let fps = Trace.fps c.trace in
  let total =
    Array.fold_left
      (fun acc agg ->
        let r =
          Fluid.run_aggregate ~capacity:(fn *. c.buffer)
            ~rate:(fn *. capacity_per_stream) ~fps [| agg |]
        in
        (* Same convention as Sigma_rho: bits still buffered at the end
           of the session were never delivered. *)
        acc
        +.
        if Float.equal r.Fluid.bits_offered 0. then 0.
        else
          (r.Fluid.bits_lost +. r.Fluid.final_backlog) /. r.Fluid.bits_offered)
      0. aggregates
  in
  total /. float_of_int (Array.length aggregates)

let shared_loss ?pool c ~n ~capacity_per_stream =
  validate c;
  shared_loss_of_aggregates c ~n (shared_aggregates ?pool c ~n)
    capacity_per_stream

let min_capacity_shared ?pool c ~n =
  validate c;
  let aggregates = shared_aggregates ?pool c ~n in
  let hi = min_capacity_cbr c in
  let lo = Trace.mean_rate c.trace in
  let pred cap = shared_loss_of_aggregates c ~n aggregates cap <= c.target_loss in
  if pred lo then lo else Numeric.find_min_such_that ~tol:1e-4 ~pred lo hi

(* RCBR demand profiles, summarized as a descending-sorted demand array
   with prefix sums so that the loss at any capacity is O(log slots). *)
type demand_profile = { sorted : float array; prefix : float array; total : float }

let profile_of_demand demand =
  let sorted = Array.copy demand in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let nslots = Array.length sorted in
  let prefix = Array.make (nslots + 1) 0. in
  for i = 0 to nslots - 1 do
    prefix.(i + 1) <- prefix.(i) +. sorted.(i)
  done;
  { sorted; prefix; total = prefix.(nslots) }

let profile_loss p link_rate =
  (* Bits lost per slot are (demand - link)+; with the demand sorted
     descending, only a prefix exceeds the link. *)
  if Float.equal p.total 0. then 0.
  else begin
    let nslots = Array.length p.sorted in
    (* First index with sorted.(i) <= link_rate. *)
    let lo = ref 0 and hi = ref nslots in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p.sorted.(mid) <= link_rate then hi := mid else lo := mid + 1
    done;
    let k = !lo in
    let excess = p.prefix.(k) -. (float_of_int k *. link_rate) in
    Float.max 0. excess /. p.total
  end

let rcbr_profiles ?pool c ~n =
  let slots = Schedule.n_slots c.schedule in
  let base = Schedule.to_rates c.schedule in
  let rngs = split_rngs ~seed:(c.seed + 1) ~replications:c.replications in
  Pool.map_array ?pool
    (fun rng ->
      let ph = phases rng ~n ~slots in
      let demand = Array.make slots 0. in
      Array.iter
        (fun shift ->
          for i = 0 to slots - 1 do
            demand.(i) <- demand.(i) +. base.((i + shift) mod slots)
          done)
        ph;
      profile_of_demand demand)
    rngs

let rcbr_loss_of_profiles ~n profiles capacity_per_stream =
  let link = float_of_int n *. capacity_per_stream in
  let total =
    Array.fold_left (fun acc p -> acc +. profile_loss p link) 0. profiles
  in
  total /. float_of_int (Array.length profiles)

let rcbr_loss ?pool c ~n ~capacity_per_stream =
  validate c;
  rcbr_loss_of_profiles ~n (rcbr_profiles ?pool c ~n) capacity_per_stream

let min_capacity_rcbr ?pool c ~n =
  validate c;
  let profiles = rcbr_profiles ?pool c ~n in
  let lo = Trace.mean_rate c.trace in
  let hi = Schedule.peak_rate c.schedule in
  let pred cap = rcbr_loss_of_profiles ~n profiles cap <= c.target_loss in
  if pred lo then lo else Numeric.find_min_such_that ~tol:1e-4 ~pred lo hi

(* Batched per-N searches for the Fig. 6 sweep: the points are
   independent, so they fan out over the pool (nested with the
   per-replication parallelism above, which the pool supports). *)
let min_capacities_shared ?pool c ~ns =
  validate c;
  Pool.map ?pool (fun n -> min_capacity_shared ?pool c ~n) ns

let min_capacities_rcbr ?pool c ~ns =
  validate c;
  Pool.map ?pool (fun n -> min_capacity_rcbr ?pool c ~n) ns

let asymptotic_rcbr_capacity c =
  validate c;
  Schedule.mean_rate c.schedule
