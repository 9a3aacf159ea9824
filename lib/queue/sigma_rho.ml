module Trace = Rcbr_traffic.Trace
module Numeric = Rcbr_util.Numeric

let loss_at ~trace ~buffer ~rate =
  (* Bits still buffered when the trace ends were never delivered; for a
     finite session they count against the service, otherwise a huge
     buffer would let the minimum rate fall below the source mean. *)
  let r = Fluid.run_constant ~capacity:buffer ~rate trace in
  if Float.equal r.Fluid.bits_offered 0. then 0.
  else (r.Fluid.bits_lost +. r.Fluid.final_backlog) /. r.Fluid.bits_offered

(* Relative tolerance of both searches. *)
let tol = 1e-4

let min_rate ~trace ~buffer ~target_loss =
  assert (buffer >= 0. && target_loss >= 0.);
  let hi = Trace.peak_rate trace in
  let pred r = loss_at ~trace ~buffer ~rate:r <= target_loss in
  Numeric.find_min_such_that ~tol ~pred 0. hi

let min_buffer ~trace ~rate ~target_loss =
  assert (rate >= 0. && target_loss >= 0.);
  (* The max backlog of an infinite buffer bounds the needed size. *)
  let unlimited = Fluid.run_constant ~capacity:infinity ~rate trace in
  let hi = unlimited.Fluid.max_backlog in
  if Float.equal hi 0. then 0.
  else
    let pred b = loss_at ~trace ~buffer:b ~rate <= target_loss in
    Numeric.find_min_such_that ~tol ~pred 0. hi

let curve ~trace ~buffers ~target_loss =
  Array.map (fun buffer -> (buffer, min_rate ~trace ~buffer ~target_loss)) buffers
