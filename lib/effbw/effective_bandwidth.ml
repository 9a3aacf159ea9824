module Matrix = Rcbr_util.Matrix
module Modulated = Rcbr_markov.Modulated
module Multiscale = Rcbr_markov.Multiscale
module Chain = Rcbr_markov.Chain

let log_mgf source ~theta =
  assert (Float.is_finite theta);
  if Float.equal theta 0. then 0.
  else begin
    let rates = Modulated.rates source in
    let p = Chain.matrix (Modulated.chain source) in
    (* Scale rates so the exponentials stay in range: Lambda_r(theta) =
       Lambda_{r-a}(theta) + theta*a for any shift a. *)
    let shift = Array.fold_left ( +. ) 0. rates /. float_of_int (Array.length rates) in
    let d = Array.map (fun r -> exp (theta *. (r -. shift))) rates in
    let m = Matrix.scale_rows p d in
    log (Matrix.perron_root m) +. (theta *. shift)
  end

let effective_bandwidth source ~theta =
  assert (theta > 0.);
  log_mgf source ~theta /. theta

let equivalent_bandwidth source ~buffer ~target_loss =
  assert (buffer > 0.);
  assert (target_loss > 0. && target_loss < 1.);
  let theta = -.log target_loss /. buffer in
  effective_bandwidth source ~theta

let subchain_equivalent_bandwidths ms ~buffer ~target_loss =
  Array.init (Multiscale.n_subchains ms) (fun k ->
      let sc = Multiscale.subchain ms k in
      let sub = Modulated.create sc.Multiscale.chain ~rates:sc.Multiscale.rates in
      equivalent_bandwidth sub ~buffer ~target_loss)

let multiscale_equivalent_bandwidth ms ~buffer ~target_loss =
  Array.fold_left Float.max 0.
    (subchain_equivalent_bandwidths ms ~buffer ~target_loss)
