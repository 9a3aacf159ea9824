module Trace = Rcbr_traffic.Trace
module Fluid = Rcbr_queue.Fluid

type segment = { start_slot : int; rate : float }
type t = { fps : float; n_slots : int; segments : segment array }

let create ~fps ~n_slots segs =
  if fps <= 0. then invalid_arg "Schedule.create: fps";
  if n_slots <= 0 then invalid_arg "Schedule.create: n_slots";
  (match segs with
  | [] -> invalid_arg "Schedule.create: no segments"
  | first :: _ ->
      if first.start_slot <> 0 then
        invalid_arg "Schedule.create: first segment must start at slot 0");
  let rec check = function
    | [] -> ()
    | [ s ] ->
        if s.start_slot >= n_slots then
          invalid_arg "Schedule.create: segment beyond n_slots";
        if s.rate < 0. then invalid_arg "Schedule.create: negative rate"
    | a :: (b :: _ as rest) ->
        if a.rate < 0. then invalid_arg "Schedule.create: negative rate";
        if b.start_slot <= a.start_slot then
          invalid_arg "Schedule.create: segments not increasing";
        check rest
  in
  check segs;
  (* Merge runs of equal rates. *)
  let merged =
    List.fold_left
      (fun acc s ->
        match acc with
        | prev :: _ when Float.equal prev.rate s.rate -> acc
        | _ -> s :: acc)
      [] segs
  in
  { fps; n_slots; segments = Array.of_list (List.rev merged) }

let constant ~fps ~n_slots rate = create ~fps ~n_slots [ { start_slot = 0; rate } ]

let fps t = t.fps
let n_slots t = t.n_slots
let segments t = Array.copy t.segments
let duration t = float_of_int t.n_slots /. t.fps

let rate_at t slot =
  assert (slot >= 0 && slot < t.n_slots);
  (* Last segment with start_slot <= slot. *)
  let lo = ref 0 and hi = ref (Array.length t.segments - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.segments.(mid).start_slot <= slot then lo := mid else hi := mid - 1
  done;
  t.segments.(!lo).rate

let to_rates t =
  let out = Array.make t.n_slots 0. in
  let nseg = Array.length t.segments in
  Array.iteri
    (fun i seg ->
      let stop =
        if i + 1 < nseg then t.segments.(i + 1).start_slot else t.n_slots
      in
      for s = seg.start_slot to stop - 1 do
        out.(s) <- seg.rate
      done)
    t.segments;
  out

let n_renegotiations t = Array.length t.segments - 1

let mean_renegotiation_interval t =
  duration t /. float_of_int (n_renegotiations t + 1)

let segment_lengths t =
  let nseg = Array.length t.segments in
  Array.mapi
    (fun i seg ->
      let stop =
        if i + 1 < nseg then t.segments.(i + 1).start_slot else t.n_slots
      in
      stop - seg.start_slot)
    t.segments

let mean_rate t =
  let lengths = segment_lengths t in
  let acc = ref 0. in
  Array.iteri
    (fun i seg -> acc := !acc +. (float_of_int lengths.(i) *. seg.rate))
    t.segments;
  !acc /. float_of_int t.n_slots

let peak_rate t =
  Array.fold_left (fun acc s -> Float.max acc s.rate) 0. t.segments

let cost t ~reneg_cost ~bandwidth_cost =
  let service_bits = mean_rate t *. duration t in
  (reneg_cost *. float_of_int (n_renegotiations t))
  +. (bandwidth_cost *. service_bits)

let bandwidth_efficiency t ~trace =
  Trace.mean_rate trace /. mean_rate t

let marginal t =
  let lengths = segment_lengths t in
  (* Collapse equal rates across non-adjacent segments. *)
  let table = Hashtbl.create 16 in
  Array.iteri
    (fun i seg ->
      let prev = try Hashtbl.find table seg.rate with Not_found -> 0 in
      Hashtbl.replace table seg.rate (prev + lengths.(i)))
    t.segments;
  let total = float_of_int t.n_slots in
  (* Sorted-key traversal: ascending rate, exactly the order the old
     fold-then-sort produced (rates are unique keys). *)
  Rcbr_util.Tables.sorted_bindings ~compare:Float.compare table
  |> List.map (fun (rate, slots) -> (float_of_int slots /. total, rate))
  |> Array.of_list

let shift t ~slots =
  let rates = to_rates t in
  let n = t.n_slots in
  let k = ((slots mod n) + n) mod n in
  let shifted = Array.init n (fun i -> rates.((i + k) mod n)) in
  (* Rebuild segments from the shifted rate array. *)
  let segs = ref [] in
  for i = n - 1 downto 0 do
    match !segs with
    | { start_slot = _; rate } :: _ when Float.equal rate shifted.(i) ->
        segs := { start_slot = i; rate } :: List.tl !segs
    | _ -> segs := { start_slot = i; rate = shifted.(i) } :: !segs
  done;
  create ~fps:t.fps ~n_slots:n !segs

let simulate_buffer t ~trace ~capacity =
  if Trace.length trace <> t.n_slots then
    invalid_arg "Schedule.simulate_buffer: length mismatch";
  if not (Float.equal (Trace.fps trace) t.fps) then
    invalid_arg "Schedule.simulate_buffer: fps mismatch";
  let rates = to_rates t in
  Fluid.run_schedule ~capacity ~rate_per_slot:(fun i -> rates.(i)) trace

let pp fmt t =
  Format.fprintf fmt
    "@[<v>schedule: %d slots @@ %.0f fps, %d renegotiations@,\
     mean rate %.1f kb/s, peak %.1f kb/s, mean interval %.2f s@]"
    t.n_slots t.fps (n_renegotiations t)
    (mean_rate t /. 1e3)
    (peak_rate t /. 1e3)
    (mean_renegotiation_interval t)
