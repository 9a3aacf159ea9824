(* Unit and property tests for Rcbr_queue. *)

module Fluid = Rcbr_queue.Fluid
module Sigma_rho = Rcbr_queue.Sigma_rho
module Events = Rcbr_queue.Events
module Wheel = Rcbr_queue.Wheel
module Trace = Rcbr_traffic.Trace

let check_close eps = Alcotest.(check (float eps))

(* --- Fluid primitives --- *)

let test_fluid_offer_drain () =
  (* Offer 60 then 50 bits into 100 bits of buffer with no drain, then
     drain 30 and 1000 bits: 10 bits overflow, the backlog peaks at the
     capacity and the last drain clamps it at zero. *)
  let t = Trace.create ~fps:1. [| 60.; 50.; 0.; 0. |] in
  let drain = [| 0.; 0.; 30.; 1000. |] in
  let r =
    Fluid.run_schedule ~capacity:100. ~rate_per_slot:(Array.get drain) t
  in
  check_close 1e-9 "offered" 110. r.Fluid.bits_offered;
  check_close 1e-9 "overflow lost" 10. r.Fluid.bits_lost;
  check_close 1e-9 "full" 100. r.Fluid.max_backlog;
  check_close 1e-9 "clamped at zero" 0. r.Fluid.final_backlog

let test_run_constant_no_loss () =
  (* 10 bits per slot at 1 fps drained at 10 b/s: zero backlog. *)
  let t = Trace.create ~fps:1. (Array.make 20 10.) in
  let r = Fluid.run_constant ~capacity:5. ~rate:10. t in
  check_close 1e-9 "no loss" 0. r.Fluid.bits_lost;
  check_close 1e-9 "offered" 200. r.Fluid.bits_offered;
  check_close 1e-9 "loss fraction" 0. (Fluid.loss_fraction r)

let test_run_constant_with_loss () =
  (* One 100-bit frame into a 30-bit buffer drained at 10 b/s: the slot
     nets 100 - 10 = 90; 60 bits overflow. *)
  let t = Trace.create ~fps:1. [| 100.; 0.; 0. |] in
  let r = Fluid.run_constant ~capacity:30. ~rate:10. t in
  check_close 1e-9 "lost" 60. r.Fluid.bits_lost;
  check_close 1e-9 "max backlog" 30. r.Fluid.max_backlog;
  check_close 1e-9 "final" 10. r.Fluid.final_backlog

let test_run_schedule () =
  let t = Trace.create ~fps:1. [| 10.; 10.; 10. |] in
  (* Rate 0 then 30: backlog grows then shrinks. *)
  let rate_per_slot i = if i = 0 then 0. else 15. in
  let r = Fluid.run_schedule ~capacity:infinity ~rate_per_slot t in
  check_close 1e-9 "no loss with infinite buffer" 0. r.Fluid.bits_lost;
  check_close 1e-9 "final backlog" 0. r.Fluid.final_backlog;
  check_close 1e-9 "max backlog" 10. r.Fluid.max_backlog

let test_run_aggregate () =
  let a = Array.make 10 5. and b = Array.make 10 7. in
  let r = Fluid.run_aggregate ~capacity:infinity ~rate:12. ~fps:1. [| a; b |] in
  check_close 1e-9 "no loss at sum rate" 0. r.Fluid.bits_lost;
  check_close 1e-9 "offered" 120. r.Fluid.bits_offered

let test_empty_queue_zero_loss_fraction () =
  let t = Trace.create ~fps:1. [| 0.; 0. |] in
  let r = Fluid.run_constant ~capacity:1. ~rate:1. t in
  check_close 1e-9 "0/0 treated as 0" 0. (Fluid.loss_fraction r)

(* --- Sigma-rho --- *)

let sample_trace () =
  Rcbr_traffic.Synthetic.star_wars ~frames:5_000 ~seed:42 ()

let test_min_rate_bounds () =
  let trace = sample_trace () in
  let rate = Sigma_rho.min_rate ~trace ~buffer:300_000. ~target_loss:1e-6 in
  Alcotest.(check bool) "above mean" true (rate > Trace.mean_rate trace);
  Alcotest.(check bool) "below peak" true (rate <= Trace.peak_rate trace)

let test_min_rate_achieves_target () =
  let trace = sample_trace () in
  let buffer = 300_000. and target_loss = 1e-4 in
  let rate = Sigma_rho.min_rate ~trace ~buffer ~target_loss in
  let r = Fluid.run_constant ~capacity:buffer ~rate trace in
  Alcotest.(check bool) "meets target" true (Fluid.loss_fraction r <= target_loss);
  (* 1% below the minimum must violate the target. *)
  let r' = Fluid.run_constant ~capacity:buffer ~rate:(0.99 *. rate) trace in
  Alcotest.(check bool) "tight" true (Fluid.loss_fraction r' > target_loss)

let test_min_rate_monotone_in_buffer () =
  let trace = sample_trace () in
  let r1 = Sigma_rho.min_rate ~trace ~buffer:100_000. ~target_loss:1e-6 in
  let r2 = Sigma_rho.min_rate ~trace ~buffer:1_000_000. ~target_loss:1e-6 in
  let r3 = Sigma_rho.min_rate ~trace ~buffer:10_000_000. ~target_loss:1e-6 in
  Alcotest.(check bool) "decreasing" true (r1 >= r2 && r2 >= r3)

let test_min_buffer_dual () =
  let trace = sample_trace () in
  let buffer = 500_000. and target_loss = 1e-4 in
  let rate = Sigma_rho.min_rate ~trace ~buffer ~target_loss in
  let buffer' = Sigma_rho.min_buffer ~trace ~rate ~target_loss in
  (* The dual buffer at the computed min rate cannot exceed the original. *)
  Alcotest.(check bool) "dual consistent" true (buffer' <= buffer *. 1.01)

let test_min_buffer_zero_loss_matches_backlog () =
  let trace = Trace.create ~fps:1. [| 0.; 30.; 0.; 0. |] in
  let b = Sigma_rho.min_buffer ~trace ~rate:10. ~target_loss:0. in
  check_close 1e-6 "peak backlog" 20. b

let test_curve () =
  let trace = sample_trace () in
  let pts =
    Sigma_rho.curve ~trace ~buffers:[| 1e5; 1e6; 1e7 |] ~target_loss:1e-6
  in
  Alcotest.(check int) "points" 3 (Array.length pts);
  let rates = Array.map snd pts in
  Alcotest.(check bool) "monotone" true (rates.(0) >= rates.(1) && rates.(1) >= rates.(2))

(* --- Events --- *)

let test_events_order () =
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:2. (fun _ -> log := 2 :: !log);
  Events.schedule e ~at:1. (fun _ -> log := 1 :: !log);
  Events.schedule e ~at:3. (fun _ -> log := 3 :: !log);
  Events.run e;
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] (List.rev !log);
  check_close 1e-9 "clock at last event" 3. (Events.now e)

let test_events_fifo_ties () =
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:1. (fun _ -> log := "a" :: !log);
  Events.schedule e ~at:1. (fun _ -> log := "b" :: !log);
  Events.run e;
  Alcotest.(check (list string)) "scheduling order" [ "a"; "b" ] (List.rev !log)

let test_events_schedule_during_run () =
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:1. (fun e ->
      log := 1 :: !log;
      Events.schedule_after e ~delay:0.5 (fun _ -> log := 2 :: !log));
  Events.run e;
  Alcotest.(check (list int)) "nested" [ 1; 2 ] (List.rev !log);
  check_close 1e-9 "clock" 1.5 (Events.now e)

let test_events_until () =
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:1. (fun _ -> log := 1 :: !log);
  Events.schedule e ~at:5. (fun _ -> log := 5 :: !log);
  Events.run ~until:2. e;
  Alcotest.(check (list int)) "stopped early" [ 1 ] (List.rev !log);
  Alcotest.(check int) "pending" 1 (Events.pending e);
  Events.run e;
  Alcotest.(check (list int)) "resumed" [ 1; 5 ] (List.rev !log)

let test_events_step () =
  let e = Events.create () in
  Alcotest.(check bool) "empty step" false (Events.step e);
  Events.schedule e ~at:1. (fun _ -> ());
  Alcotest.(check bool) "one step" true (Events.step e);
  Alcotest.(check bool) "drained" false (Events.step e)

let test_events_exactly_at_until () =
  (* The boundary the simulators rely on for their horizons: events at
     exactly [until] still fire, later ones stay pending. *)
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:1. (fun _ -> log := 1 :: !log);
  Events.schedule e ~at:2. (fun _ -> log := 2 :: !log);
  Events.schedule e ~at:2. (fun _ -> log := 3 :: !log);
  Events.schedule e ~at:(2. +. epsilon_float *. 4.) (fun _ -> log := 4 :: !log);
  Events.run ~until:2. e;
  Alcotest.(check (list int)) "boundary events fired" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "just-after stays pending" 1 (Events.pending e);
  check_close 1e-9 "clock at the boundary" 2. (Events.now e)

let test_events_fifo_ties_many () =
  (* Equal-time events fire in scheduling order even when interleaved
     with other times and added mid-run by an earlier tied event. *)
  let e = Events.create () in
  let log = ref [] in
  let mark v _ = log := v :: !log in
  Events.schedule e ~at:2. (mark "t2-a");
  Events.schedule e ~at:1. (fun e ->
      log := "t1-a" :: !log;
      (* A same-time event scheduled mid-run goes after the existing
         t = 1 entries (FIFO by scheduling order, not insertion time). *)
      Events.schedule e ~at:1. (mark "t1-d"));
  Events.schedule e ~at:2. (mark "t2-b");
  Events.schedule e ~at:1. (mark "t1-b");
  Events.schedule e ~at:1. (mark "t1-c");
  Events.run e;
  Alcotest.(check (list string)) "stable tie order"
    [ "t1-a"; "t1-b"; "t1-c"; "t1-d"; "t2-a"; "t2-b" ]
    (List.rev !log)

let test_events_pending_counts () =
  let e = Events.create () in
  Alcotest.(check int) "empty" 0 (Events.pending e);
  Events.schedule e ~at:1. (fun e ->
      Events.schedule_after e ~delay:1. (fun _ -> ()));
  Events.schedule e ~at:3. (fun _ -> ());
  Alcotest.(check int) "two scheduled" 2 (Events.pending e);
  ignore (Events.step e);
  Alcotest.(check int) "fired one, spawned one" 2 (Events.pending e);
  ignore (Events.step e);
  Alcotest.(check int) "one left" 1 (Events.pending e);
  Events.run e;
  Alcotest.(check int) "drained" 0 (Events.pending e)

let test_events_past_rejected () =
  let asserts f = try f (); false with Assert_failure _ -> true in
  let e = Events.create () in
  Events.schedule e ~at:2. (fun _ -> ());
  ignore (Events.step e);
  check_close 1e-9 "clock advanced" 2. (Events.now e);
  Alcotest.(check bool) "scheduling in the past rejected" true
    (asserts (fun () -> Events.schedule e ~at:1. (fun _ -> ())));
  Alcotest.(check bool) "negative delay rejected" true
    (asserts (fun () -> Events.schedule_after e ~delay:(-1.) (fun _ -> ())));
  (* Scheduling at exactly [now] is allowed and fires immediately. *)
  let fired = ref false in
  Events.schedule e ~at:2. (fun _ -> fired := true);
  Events.run e;
  Alcotest.(check bool) "at = now fires" true !fired

let test_events_advance_to () =
  let e = Events.create () in
  let log = ref [] in
  Events.schedule e ~at:1. (fun _ -> log := 1 :: !log);
  Events.schedule e ~at:7. (fun _ -> log := 7 :: !log);
  Events.advance_to e ~at:5.;
  Alcotest.(check (list int)) "fired up to the bound" [ 1 ] (List.rev !log);
  check_close 1e-9 "clock lands on the bound, not the last event" 5.
    (Events.now e);
  (* Unlike [run ~until], scheduling anywhere in (last event, bound]
     is now in the past. *)
  let asserts f = try f (); false with Assert_failure _ -> true in
  Alcotest.(check bool) "past of the new clock rejected" true
    (asserts (fun () -> Events.schedule e ~at:4. (fun _ -> ())));
  Events.advance_to e ~at:5.;
  check_close 1e-9 "idempotent at the same bound" 5. (Events.now e);
  Events.advance_to e ~at:10.;
  Alcotest.(check (list int)) "rest fired" [ 1; 7 ] (List.rev !log);
  check_close 1e-9 "final clock" 10. (Events.now e)

let test_events_cancel_token () =
  let e = Events.create () in
  let log = ref [] in
  let t1 = Events.schedule_token e ~at:1. (fun _ -> log := 1 :: !log) in
  let t2 = Events.schedule_token e ~at:2. (fun _ -> log := 2 :: !log) in
  let t3 = Events.schedule_token e ~at:3. (fun _ -> log := 3 :: !log) in
  Alcotest.(check int) "all pending" 3 (Events.pending e);
  Events.cancel t2;
  Alcotest.(check bool) "cancelled" true (Events.cancelled t2);
  Alcotest.(check bool) "others live" false (Events.cancelled t1);
  Alcotest.(check int) "pending drops" 2 (Events.pending e);
  Events.cancel t2;
  (* double cancel is a no-op *)
  Alcotest.(check int) "still two" 2 (Events.pending e);
  Events.run e;
  Alcotest.(check (list int)) "cancelled event skipped" [ 1; 3 ]
    (List.rev !log);
  Alcotest.(check bool) "popped token reads cancelled" true
    (Events.cancelled t3);
  Events.cancel t3;
  (* cancelling after the pop is a no-op too *)
  Alcotest.(check (list int)) "log unchanged" [ 1; 3 ] (List.rev !log)

(* --- Wheel: the event queue behind Events, Megacall and Cell_mux --- *)

let test_wheel_order_and_ties () =
  let w = Wheel.create () in
  ignore (Wheel.push w ~time:2. "t2-a");
  ignore (Wheel.push w ~time:1. "t1-a");
  ignore (Wheel.push w ~time:2. "t2-b");
  ignore (Wheel.push w ~time:1. "t1-b");
  Alcotest.(check int) "length" 4 (Wheel.length w);
  Alcotest.(check (float 0.)) "min_time" 1. (Wheel.min_time w);
  let popped = List.init 4 (fun _ -> Option.get (Wheel.pop w)) in
  Alcotest.(check (list (pair (float 0.) string)))
    "time order, FIFO within ties"
    [ (1., "t1-a"); (1., "t1-b"); (2., "t2-a"); (2., "t2-b") ]
    popped;
  Alcotest.(check int) "drained" 0 (Wheel.length w)

let test_wheel_cancel () =
  let w = Wheel.create () in
  let a = Wheel.push w ~time:1. "a" in
  let b = Wheel.push w ~time:2. "b" in
  let c = Wheel.push w ~time:3. "c" in
  Wheel.cancel w b;
  Alcotest.(check bool) "b dead" false (Wheel.live w b);
  Alcotest.(check bool) "a live" true (Wheel.live w a);
  Alcotest.(check int) "length skips cancelled" 2 (Wheel.length w);
  Wheel.cancel w b;
  Alcotest.(check int) "double cancel no-op" 2 (Wheel.length w);
  Alcotest.(check (option (pair (float 0.) string))) "pop a" (Some (1., "a"))
    (Wheel.pop w);
  Alcotest.(check bool) "popped is no longer live" false (Wheel.live w a);
  Alcotest.(check (option (pair (float 0.) string))) "pop skips b"
    (Some (3., "c"))
    (Wheel.pop w);
  Wheel.cancel w c;
  (* cancel after pop: no-op *)
  Alcotest.(check (option (pair (float 0.) string))) "empty" None (Wheel.pop w)

let test_wheel_rejects_bad_times () =
  let w = Wheel.create () in
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "nan" true (raises (fun () -> Wheel.push w ~time:nan ()));
  Alcotest.(check bool) "inf" true
    (raises (fun () -> Wheel.push w ~time:infinity ()));
  Alcotest.(check bool) "negative" true
    (raises (fun () -> Wheel.push w ~time:(-1.) ()))

let test_wheel_grow_shrink () =
  (* Push enough to grow the heap array many times, drain it to empty,
     and verify global order the whole way. *)
  let rng = Rcbr_util.Rng.create 11 in
  let w = Wheel.create () in
  let n = 50_000 in
  for i = 0 to n - 1 do
    ignore (Wheel.push w ~time:(Rcbr_util.Rng.float rng *. 1000.) i)
  done;
  Alcotest.(check int) "all live" n (Wheel.length w);
  let last = ref neg_infinity and count = ref 0 and ok = ref true in
  let rec drain () =
    match Wheel.pop w with
    | None -> ()
    | Some (t, _) ->
        if t < !last then ok := false;
        last := t;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "non-decreasing" true !ok;
  Alcotest.(check int) "all popped" n !count

(* The event path's allocation.  Times come from a list, so each is
   already a boxed float and the call boxes nothing; [Gc.minor_words]
   counts its own boxed result, hence the small constant slack. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_wheel_push_pop_allocation () =
  (* A warm heap (its arrays at the peak population, ids recycling)
     pushes and pops without allocating. *)
  let w = Wheel.create () in
  let rng = Rcbr_util.Rng.create 5 in
  let times = List.init 1_000 (fun _ -> 100. *. Rcbr_util.Rng.float rng) in
  List.iter (fun time -> ignore (Wheel.push w ~time 0)) times;
  let sum = ref 0 in
  let push_pop time =
    ignore (Wheel.push w ~time 1);
    sum := !sum + Wheel.pop_min w
  in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10 do
          List.iter push_pop times
        done)
  in
  Alcotest.(check int) "population kept" 1_000 (Wheel.length w);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 push + pop" words)
    true (words < 16.)

let test_events_step_allocation () =
  (* A step costs at most the clock: [Wheel.min_time] returns the
     event's time boxed, and the engine keeps that box as [now]. *)
  let e = Events.create () in
  let fired = ref 0 in
  let f _ = incr fired in
  for i = 1 to 10_000 do
    Events.schedule e ~at:(float_of_int (i mod 97)) f
  done;
  let words = minor_words (fun () -> while Events.step e do () done) in
  Alcotest.(check int) "every event fired" 10_000 !fired;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 steps" words)
    true (words <= 20_016.)

let test_wheel_stale_handles () =
  (* A handle outlives its entry: once the entry has popped or been
     cancelled, its id is reused by the next push, and the old handle
     must neither read as live nor cancel the entry that reuses it. *)
  let w = Wheel.create () in
  let a = Wheel.push w ~time:1. "a" in
  Alcotest.(check string) "a pops" "a" (Wheel.pop_min w);
  let b = Wheel.push w ~time:2. "b" in
  Alcotest.(check bool) "popped handle dead" false (Wheel.live w a);
  Alcotest.(check bool) "reusing entry live" true (Wheel.live w b);
  Wheel.cancel w a;
  Alcotest.(check int) "stale cancel leaves b queued" 1 (Wheel.length w);
  Wheel.cancel w b;
  let c = Wheel.push w ~time:3. "c" in
  Alcotest.(check bool) "cancelled handle dead" false (Wheel.live w b);
  Wheel.cancel w b;
  Wheel.cancel w a;
  Alcotest.(check bool) "c still live" true (Wheel.live w c);
  Alcotest.(check (option (pair (float 0.) string)))
    "c pops" (Some (3., "c")) (Wheel.pop w)

(* --- Properties --- *)

let arrivals_gen =
  QCheck.Gen.(array_size (int_range 1 80) (float_range 0. 100.))

let prop_conservation =
  QCheck.Test.make ~name:"bits are conserved" ~count:200
    (QCheck.make arrivals_gen) (fun frames ->
      let t = Trace.create ~fps:1. frames in
      let r = Fluid.run_constant ~capacity:50. ~rate:20. t in
      (* offered = lost + final backlog + served, and served <= rate * T *)
      let served =
        r.Fluid.bits_offered -. r.Fluid.bits_lost -. r.Fluid.final_backlog
      in
      served >= -.1e-6
      && served <= (20. *. float_of_int (Array.length frames)) +. 1e-6)

let prop_loss_monotone_in_rate =
  QCheck.Test.make ~name:"loss decreases with drain rate" ~count:200
    (QCheck.make arrivals_gen) (fun frames ->
      let t = Trace.create ~fps:1. frames in
      let l1 =
        Fluid.loss_fraction (Fluid.run_constant ~capacity:40. ~rate:10. t)
      in
      let l2 =
        Fluid.loss_fraction (Fluid.run_constant ~capacity:40. ~rate:30. t)
      in
      l2 <= l1 +. 1e-9)

let prop_loss_monotone_in_buffer =
  QCheck.Test.make ~name:"loss decreases with buffer" ~count:200
    (QCheck.make arrivals_gen) (fun frames ->
      let t = Trace.create ~fps:1. frames in
      let l1 =
        Fluid.loss_fraction (Fluid.run_constant ~capacity:10. ~rate:15. t)
      in
      let l2 =
        Fluid.loss_fraction (Fluid.run_constant ~capacity:100. ~rate:15. t)
      in
      l2 <= l1 +. 1e-9)

let prop_infinite_buffer_no_loss =
  QCheck.Test.make ~name:"infinite buffer never loses" ~count:200
    (QCheck.make arrivals_gen) (fun frames ->
      let t = Trace.create ~fps:1. frames in
      let r = Fluid.run_constant ~capacity:infinity ~rate:5. t in
      Float.equal r.Fluid.bits_lost 0.)

(* Cancellation against a naive model: a list of (time, seq, alive)
   entries popped by linear minimum search.  Times are drawn from a mix
   of a continuum and a coarse lattice, so duplicate timestamps (the
   FIFO tie case) occur constantly. *)
let cancel_ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (triple (int_range 0 4)
         (oneof
            [
              float_range 0. 50.;
              map (fun i -> float_of_int i /. 2.) (int_range 0 32);
            ])
         (int_range 0 1000)))

(* Wheel pops are (time, payload) pairs. *)
let same_pop =
  Option.equal (fun (t1, v1) (t2, v2) -> Float.equal t1 t2 && v1 = v2)

let prop_wheel_cancel_model =
  QCheck.Test.make ~name:"wheel cancel = naive model" ~count:300
    (QCheck.make cancel_ops_gen) (fun ops ->
      let w = Wheel.create () in
      let handles = ref [||] in
      (* model: (time, seq, alive ref) in push order, index = seq *)
      let model = ref [] in
      let push_handle h = handles := Array.append !handles [| h |] in
      let model_pop () =
        let best = ref None in
        List.iter
          (fun (t, s, alive) ->
            if !alive then
              match !best with
              | Some (bt, bs, _) when (bt, bs) <= (t, s) -> ()
              | _ -> best := Some (t, s, alive))
          !model;
        match !best with
        | None -> None
        | Some (t, s, alive) ->
            alive := false;
            Some (t, s)
      in
      (* After every op the queue's length is the model's live count and
         each handle is live exactly when its model entry is. *)
      let agrees () =
        Wheel.length w
        = List.length (List.filter (fun (_, _, alive) -> !alive) !model)
        && List.for_all
             (fun (_, s, alive) ->
               Bool.equal (Wheel.live w !handles.(s)) !alive)
             !model
      in
      let ok = ref true in
      List.iter
        (fun (kind, t, k) ->
          let n = Array.length !handles in
          if kind <= 2 then begin
            let h = Wheel.push w ~time:t n in
            push_handle h;
            model := (t, n, ref true) :: !model
          end
          else if kind = 3 && n > 0 then begin
            let i = k mod n in
            Wheel.cancel w !handles.(i);
            let _, _, alive =
              List.find (fun (_, s, _) -> s = i) !model
            in
            alive := false
          end
          else if kind = 4 then
            if not (same_pop (Wheel.pop w) (model_pop ())) then ok := false;
          if not (agrees ()) then ok := false)
        ops;
      let rec drain () =
        let a = Wheel.pop w and b = model_pop () in
        if not (same_pop a b && agrees ()) then ok := false;
        if a <> None || b <> None then drain ()
      in
      drain ();
      !ok)

let () =
  let q = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "rcbr_queue"
    [
      ( "fluid",
        [
          Alcotest.test_case "offer/drain" `Quick test_fluid_offer_drain;
          Alcotest.test_case "constant no loss" `Quick test_run_constant_no_loss;
          Alcotest.test_case "constant with loss" `Quick test_run_constant_with_loss;
          Alcotest.test_case "schedule" `Quick test_run_schedule;
          Alcotest.test_case "aggregate" `Quick test_run_aggregate;
          Alcotest.test_case "zero offered" `Quick test_empty_queue_zero_loss_fraction;
        ] );
      ( "sigma_rho",
        [
          Alcotest.test_case "bounds" `Quick test_min_rate_bounds;
          Alcotest.test_case "achieves target" `Quick test_min_rate_achieves_target;
          Alcotest.test_case "monotone in buffer" `Quick
            test_min_rate_monotone_in_buffer;
          Alcotest.test_case "dual buffer" `Quick test_min_buffer_dual;
          Alcotest.test_case "zero-loss buffer" `Quick
            test_min_buffer_zero_loss_matches_backlog;
          Alcotest.test_case "curve" `Quick test_curve;
        ] );
      ( "events",
        [
          Alcotest.test_case "order" `Quick test_events_order;
          Alcotest.test_case "fifo ties" `Quick test_events_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick
            test_events_schedule_during_run;
          Alcotest.test_case "until" `Quick test_events_until;
          Alcotest.test_case "step" `Quick test_events_step;
          Alcotest.test_case "exactly at until" `Quick
            test_events_exactly_at_until;
          Alcotest.test_case "fifo ties interleaved" `Quick
            test_events_fifo_ties_many;
          Alcotest.test_case "pending counts" `Quick test_events_pending_counts;
          Alcotest.test_case "past scheduling rejected" `Quick
            test_events_past_rejected;
          Alcotest.test_case "advance_to" `Quick test_events_advance_to;
          Alcotest.test_case "cancel token" `Quick test_events_cancel_token;
          Alcotest.test_case "step allocation" `Quick
            test_events_step_allocation;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "order and ties" `Quick test_wheel_order_and_ties;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "bad times rejected" `Quick
            test_wheel_rejects_bad_times;
          Alcotest.test_case "grow and shrink" `Quick test_wheel_grow_shrink;
          Alcotest.test_case "push and pop allocation" `Quick
            test_wheel_push_pop_allocation;
          Alcotest.test_case "stale handles stay dead" `Quick
            test_wheel_stale_handles;
        ]
        @ q
            [ prop_wheel_cancel_model ] );
      ( "properties",
        q
          [
            prop_conservation;
            prop_loss_monotone_in_rate;
            prop_loss_monotone_in_buffer;
            prop_infinite_buffer_no_loss;
          ] );
    ]
