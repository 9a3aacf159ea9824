module Rng = Rcbr_util.Rng
module Multiscale = Rcbr_markov.Multiscale
module Chain = Rcbr_markov.Chain

type scene_class = {
  label : string;
  rate_multiplier : float;
  mean_duration_s : float;
}

type segment = {
  seg_label : string;
  class_weights : float array;
  seg_mean_duration_s : float;
  seg_weight : float;
}

type params = {
  mean_rate_bps : float;
  fps : float;
  classes : scene_class array;
  segments : segment array;
  gop : Gop.pattern;
  noise_rho : float;
  noise_sigma : float;
  min_frame_bits : float;
}

let star_wars_params =
  {
    mean_rate_bps = 374_000.;
    fps = 24.;
    classes =
      [|
        { label = "quiet"; rate_multiplier = 0.35; mean_duration_s = 15. };
        { label = "low"; rate_multiplier = 0.65; mean_duration_s = 12. };
        { label = "normal"; rate_multiplier = 1.00; mean_duration_s = 10. };
        { label = "busy"; rate_multiplier = 1.90; mean_duration_s = 7. };
        { label = "action"; rate_multiplier = 3.40; mean_duration_s = 6. };
      |];
    segments =
      [|
        {
          seg_label = "calm";
          class_weights = [| 0.45; 0.35; 0.18; 0.02; 0.00 |];
          seg_mean_duration_s = 180.;
          seg_weight = 0.35;
        };
        {
          seg_label = "mixed";
          class_weights = [| 0.15; 0.25; 0.40; 0.15; 0.05 |];
          seg_mean_duration_s = 150.;
          seg_weight = 0.45;
        };
        {
          seg_label = "intense";
          class_weights = [| 0.02; 0.08; 0.28; 0.35; 0.27 |];
          seg_mean_duration_s = 100.;
          seg_weight = 0.20;
        };
      |];
    gop =
      Gop.(
        make
          ~kinds:[| I; B; B; P; B; B; P; B; B; P; B; B |]
          ~weight_i:2.1 ~weight_p:1.15 ~weight_b:0.6);
    noise_rho = 0.85;
    noise_sigma = 0.11;
    min_frame_bits = 200.;
  }

let default_frames = 171_000

let within_segment_occupancy p seg =
  (* Time share of class k inside a segment: weight * duration. *)
  let raw =
    Array.mapi
      (fun k c -> seg.class_weights.(k) *. c.mean_duration_s)
      p.classes
  in
  let total = Array.fold_left ( +. ) 0. raw in
  Array.map (fun x -> x /. total) raw

let class_occupancy p =
  let k = Array.length p.classes in
  let acc = Array.make k 0. in
  let seg_total =
    Array.fold_left
      (fun a s -> a +. (s.seg_weight *. s.seg_mean_duration_s))
      0. p.segments
  in
  Array.iter
    (fun seg ->
      let share = seg.seg_weight *. seg.seg_mean_duration_s /. seg_total in
      let occ = within_segment_occupancy p seg in
      Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (share *. x)) occ)
    p.segments;
  acc

let expected_multiplier p =
  let occ = class_occupancy p in
  let acc = ref 0. in
  Array.iteri
    (fun i c -> acc := !acc +. (occ.(i) *. c.rate_multiplier))
    p.classes;
  !acc

let generate ?(params = star_wars_params) ~seed ~frames () =
  assert (frames > 0);
  let p = params in
  let rng = Rng.create seed in
  let gop_norm = Gop.mean_weight p.gop in
  let mean_frame_bits = p.mean_rate_bps /. p.fps in
  (* Lognormal correction so E[exp(noise)] = 1. *)
  let log_bias = -.(p.noise_sigma *. p.noise_sigma) /. 2. in
  let innovation_sigma =
    p.noise_sigma *. sqrt (1. -. (p.noise_rho *. p.noise_rho))
  in
  let out = Array.make frames 0. in
  let log_noise = ref (Rng.normal rng ~mu:0. ~sigma:p.noise_sigma) in
  let pick_segment () =
    Rng.choose rng (Array.map (fun s -> s.seg_weight) p.segments)
  in
  let seg = ref (pick_segment ()) in
  let pick_class () = Rng.choose rng p.segments.(!seg).class_weights in
  let scene = ref (pick_class ()) in
  let draw_scene_length c =
    let mean_frames = c.mean_duration_s *. p.fps in
    1 + Rng.geometric rng (1. /. mean_frames)
  in
  let scene_left = ref (draw_scene_length p.classes.(!scene)) in
  for i = 0 to frames - 1 do
    if !scene_left = 0 then begin
      (* Segment switches only at scene boundaries; memorylessness of the
         exponential makes the switch probability depend on the elapsed
         scene length. *)
      let elapsed = p.classes.(!scene).mean_duration_s in
      let p_switch =
        1. -. exp (-.elapsed /. p.segments.(!seg).seg_mean_duration_s)
      in
      if Rng.float rng < p_switch then seg := pick_segment ();
      scene := pick_class ();
      scene_left := draw_scene_length p.classes.(!scene)
    end;
    decr scene_left;
    let c = p.classes.(!scene) in
    log_noise :=
      (p.noise_rho *. !log_noise)
      +. Rng.normal rng ~mu:0. ~sigma:innovation_sigma;
    let noise = exp (!log_noise +. log_bias) in
    let bits =
      mean_frame_bits *. c.rate_multiplier
      *. (Gop.weight_at p.gop i /. gop_norm)
      *. noise
    in
    out.(i) <- Float.max p.min_frame_bits bits
  done;
  (* Exact rescale: the published mean is a fixed property of the trace. *)
  let actual_mean =
    Array.fold_left ( +. ) 0. out /. float_of_int frames *. p.fps
  in
  let scale = p.mean_rate_bps /. actual_mean in
  Array.iteri (fun i x -> out.(i) <- x *. scale) out;
  Trace.create ~fps:p.fps out

let star_wars ?(frames = default_frames) ~seed () =
  generate ~params:star_wars_params ~seed ~frames ()

let to_multiscale p =
  let norm = expected_multiplier p in
  let mean_frame_bits = p.mean_rate_bps /. p.fps in
  let k = Array.length p.classes in
  let occ = class_occupancy p in
  (* Fast subchain: two levels, class mean -/+ one noise std-dev, with a
     flicker probability matching the AR(1) decorrelation time. *)
  let flicker = 1. -. p.noise_rho in
  let subchains =
    Array.map
      (fun c ->
        let m = mean_frame_bits *. c.rate_multiplier /. norm in
        let spread = p.noise_sigma in
        let chain =
          Chain.create
            [| [| 1. -. flicker; flicker |]; [| flicker; 1. -. flicker |] |]
        in
        {
          Multiscale.chain;
          rates = [| m *. (1. -. spread); m *. (1. +. spread) |];
        })
      p.classes
  in
  (* Scene-change probability out of class i per frame is 1/mean_frames;
     target class j chosen with probability proportional to its long-run
     occupancy (excluding self). *)
  let eps =
    Array.init k (fun i ->
        let leave = 1. /. (p.classes.(i).mean_duration_s *. p.fps) in
        let weights = Array.init k (fun j -> if i = j then 0. else occ.(j)) in
        let total = Array.fold_left ( +. ) 0. weights in
        Array.map (fun w -> leave *. w /. total) weights)
  in
  let draft = Multiscale.create subchains ~eps in
  (* The eps-chain's stationary law differs slightly from the
     renewal-reward occupancy used for the first normalization; rescale
     the rates so the model's own stationary mean is exact. *)
  let correction = mean_frame_bits /. Multiscale.mean_rate draft in
  let subchains =
    Array.map
      (fun sc ->
        { sc with Multiscale.rates = Array.map (fun r -> r *. correction) sc.Multiscale.rates })
      subchains
  in
  Multiscale.create subchains ~eps
