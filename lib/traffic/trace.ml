type t = { fps : float; frames : float array; prefix : float array }
(* [prefix.(i)] is the total bits of frames [0 .. i-1].  Computed once at
   construction: every consumer of cumulative arrivals (the trellis
   delay bound, sigma-rho searches, SMG sweeps) reads this array instead
   of re-summing the trace, and sharing it eagerly keeps the record
   immutable — safe to read from any domain of the work pool. *)

let prefix_of frames =
  let n = Array.length frames in
  let prefix = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. frames.(i)
  done;
  prefix

let of_owned_frames ~fps frames = { fps; frames; prefix = prefix_of frames }

let create ~fps frames =
  assert (fps > 0.);
  assert (Array.length frames > 0);
  Array.iter (fun x -> assert (x >= 0.)) frames;
  of_owned_frames ~fps (Array.copy frames)

let fps t = t.fps
let length t = Array.length t.frames
let frame t i = t.frames.(i)
let raw_frames t = t.frames
let prefix_sums t = t.prefix
let slot_duration t = 1. /. t.fps
let duration t = float_of_int (length t) /. t.fps
let total_bits t = t.prefix.(length t)
let mean_rate t = total_bits t /. duration t
let peak_rate t = Array.fold_left Float.max 0. t.frames *. t.fps

let window_max_bits t w =
  let n = length t in
  assert (w >= 1 && w <= n);
  let best = ref neg_infinity in
  for i = w to n do
    let sum = t.prefix.(i) -. t.prefix.(i - w) in
    if sum > !best then best := sum
  done;
  !best

(* lint: allow R001 — probe: "synthetic burstiness" measures the generator's
   10-s window rates with it *)
let rate_in_window t ~lo ~hi =
  assert (lo >= 0 && hi < length t && lo <= hi);
  (t.prefix.(hi + 1) -. t.prefix.(lo)) *. t.fps /. float_of_int (hi - lo + 1)

let shift t k =
  let n = length t in
  let k = ((k mod n) + n) mod n in
  of_owned_frames ~fps:t.fps
    (Array.init n (fun i -> t.frames.((i + k) mod n)))

let sub t ~pos ~len =
  assert (pos >= 0 && len > 0 && pos + len <= length t);
  of_owned_frames ~fps:t.fps (Array.sub t.frames pos len)

let sustained_peak t ~threshold =
  let per_frame = threshold /. t.fps in
  let best = ref 0 and run = ref 0 in
  Array.iter
    (fun x ->
      if x >= per_frame then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 0)
    t.frames;
  !best

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%.17g\n" t.fps;
      Array.iter (fun x -> Printf.fprintf oc "%.17g\n" x) t.frames)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fps = float_of_string (String.trim (input_line ic)) in
      let frames = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then frames := float_of_string line :: !frames
         done
       with End_of_file -> ());
      create ~fps (Array.of_list (List.rev !frames)))

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>frames: %d (%.1f s @ %.0f fps)@,mean rate: %.1f kb/s@,\
     peak frame rate: %.1f kb/s@,max 3-frame burst: %.1f kb@]"
    (length t) (duration t) t.fps
    (mean_rate t /. 1e3)
    (peak_rate t /. 1e3)
    (window_max_bits t (min 3 (length t)) /. 1e3)
