(* Unit tests for Rcbr_admission: descriptors and the three admission
   controllers. *)

module Descriptor = Rcbr_admission.Descriptor
module Controller = Rcbr_admission.Controller
module Schedule = Rcbr_core.Schedule
module Chernoff = Rcbr_effbw.Chernoff

let check_close eps = Alcotest.(check (float eps))

let descriptor () =
  Descriptor.create ~levels:[| 10.; 20.; 40. |] ~fractions:[| 0.5; 0.3; 0.2 |]

(* --- Descriptor --- *)

(* Mean and peak of the marginal admission control works on. *)
let mean_rate d = Chernoff.mean (Descriptor.to_marginal d)
let peak_rate d = Chernoff.max_level (Descriptor.to_marginal d)

(* A well-formed marginal: nonnegative probabilities summing to 1. *)
let check_marginal m =
  Alcotest.(check bool) "nonnegative probabilities" true
    (Array.for_all (fun (p, _) -> p >= 0.) m);
  check_close 1e-6 "probabilities sum to 1" 1.
    (Array.fold_left (fun acc (p, _) -> acc +. p) 0. m)

let test_descriptor_basic () =
  let d = descriptor () in
  check_close 1e-12 "mean" 19. (mean_rate d);
  check_close 1e-12 "peak" 40. (peak_rate d);
  let m = Descriptor.to_marginal d in
  check_marginal m;
  Alcotest.(check int) "levels" 3 (Array.length m)

let test_descriptor_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "levels not ascending" true
    (bad (fun () ->
         ignore (Descriptor.create ~levels:[| 10.; 5. |] ~fractions:[| 0.5; 0.5 |])));
  Alcotest.(check bool) "fractions not normalized" true
    (bad (fun () ->
         ignore (Descriptor.create ~levels:[| 1.; 2. |] ~fractions:[| 0.5; 0.2 |])));
  Alcotest.(check bool) "length mismatch" true
    (bad (fun () ->
         ignore (Descriptor.create ~levels:[| 1. |] ~fractions:[| 0.5; 0.5 |])));
  Alcotest.(check bool) "negative fraction" true
    (bad (fun () ->
         ignore
           (Descriptor.create ~levels:[| 1.; 2. |] ~fractions:[| -0.5; 1.5 |])))

let test_descriptor_of_schedule () =
  let s =
    Schedule.create ~fps:1. ~n_slots:10
      [
        { Schedule.start_slot = 0; rate = 10. };
        { Schedule.start_slot = 5; rate = 30. };
      ]
  in
  let d = Descriptor.of_schedule s in
  check_close 1e-12 "mean matches schedule" (Schedule.mean_rate s)
    (mean_rate d);
  check_close 1e-12 "peak" 30. (peak_rate d)

let test_max_admissible_monotone () =
  let d = descriptor () in
  let n1 = Descriptor.max_admissible d ~capacity:200. ~target:1e-3 in
  let n2 = Descriptor.max_admissible d ~capacity:400. ~target:1e-3 in
  Alcotest.(check bool) "capacity monotone" true (n2 >= n1);
  let strict = Descriptor.max_admissible d ~capacity:400. ~target:1e-9 in
  Alcotest.(check bool) "stricter target admits fewer" true (strict <= n2)

let test_max_admissible_leaves_slack () =
  (* The admission rule must be more conservative than pure mean-rate
     packing. *)
  let d = descriptor () in
  let n = Descriptor.max_admissible d ~capacity:400. ~target:1e-6 in
  Alcotest.(check bool) "slack against fluctuations" true
    (float_of_int n *. mean_rate d < 400.)

(* --- Controllers --- *)

let test_perfect_admits_to_limit () =
  let d = descriptor () in
  let capacity = 400. and target = 1e-3 in
  let limit = Descriptor.max_admissible d ~capacity ~target in
  let ctl = Controller.perfect ~descriptor:d ~capacity ~target in
  Alcotest.(check string) "name" "perfect" (Controller.name ctl);
  for call = 1 to limit do
    Alcotest.(check bool) "admits" true (Controller.admit ctl ~now:0.);
    Controller.on_admit ctl ~now:0. ~call ~rate:10.
  done;
  Alcotest.(check int) "in system" limit (Controller.n_in_system ctl);
  Alcotest.(check bool) "rejects past limit" false (Controller.admit ctl ~now:0.);
  (* A departure frees a slot. *)
  Controller.on_depart ctl ~now:1. ~call:1;
  Alcotest.(check bool) "admits again" true (Controller.admit ctl ~now:1.)

let test_memoryless_empty_system_admits () =
  let ctl = Controller.memoryless ~capacity:100. ~target:1e-3 in
  Alcotest.(check bool) "no info admits" true (Controller.admit ctl ~now:0.)

let test_memoryless_uses_instantaneous_rates () =
  (* If every current call sits at a low rate, the memoryless scheme
     sees a lean distribution and over-admits; if they sit at the peak,
     it refuses.  This is exactly its non-robustness. *)
  let capacity = 100. and target = 1e-6 in
  let low = Controller.memoryless ~capacity ~target in
  for call = 1 to 4 do
    Controller.on_admit low ~now:0. ~call ~rate:10.
  done;
  let lean_admits = Controller.admit low ~now:0. in
  let high = Controller.memoryless ~capacity ~target in
  for call = 1 to 4 do
    Controller.on_admit high ~now:0. ~call ~rate:25.
  done;
  let fat_admits = Controller.admit high ~now:0. in
  Alcotest.(check bool) "lean view admits" true lean_admits;
  Alcotest.(check bool) "fat view refuses" false fat_admits

let test_memory_learns_history () =
  (* Calls that spent most of their life at 30 but currently sit at 10:
     the memory scheme must still see the 30s. *)
  let capacity = 100. and target = 1e-6 in
  let ctl = Controller.memory ~capacity ~target in
  for call = 1 to 4 do
    Controller.on_admit ctl ~now:0. ~call ~rate:30.;
    (* 100 seconds at rate 30, then drop to 10 just now. *)
    Controller.on_renegotiate ctl ~now:100. ~call ~rate:10.
  done;
  let memory_decision = Controller.admit ctl ~now:101. in
  (* The memoryless scheme in the same instantaneous state admits. *)
  let ml = Controller.memoryless ~capacity ~target in
  for call = 1 to 4 do
    Controller.on_admit ml ~now:0. ~call ~rate:10.
  done;
  Alcotest.(check bool) "memoryless fooled" true (Controller.admit ml ~now:101.);
  Alcotest.(check bool) "memory remembers the peaks" false memory_decision

let test_memory_fresh_calls_fallback () =
  let ctl = Controller.memory ~capacity:1000. ~target:1e-3 in
  Controller.on_admit ctl ~now:0. ~call:1 ~rate:10.;
  (* No elapsed time at all: falls back to instantaneous rates. *)
  Alcotest.(check bool) "does not crash, decides" true
    (Controller.admit ctl ~now:0. || true)

let test_always_admit () =
  let ctl = Controller.always_admit () in
  for call = 1 to 1000 do
    Alcotest.(check bool) "admits" true (Controller.admit ctl ~now:0.);
    Controller.on_admit ctl ~now:0. ~call ~rate:1e9
  done

let test_departure_bookkeeping () =
  let ctl = Controller.memoryless ~capacity:100. ~target:1e-3 in
  Controller.on_admit ctl ~now:0. ~call:1 ~rate:10.;
  Controller.on_admit ctl ~now:0. ~call:2 ~rate:10.;
  Alcotest.(check int) "two in system" 2 (Controller.n_in_system ctl);
  Controller.on_depart ctl ~now:1. ~call:1;
  Alcotest.(check int) "one left" 1 (Controller.n_in_system ctl);
  (* Unknown renegotiations and departures are ignored rather than
     crashing: slot 99 lies past the end of the slot columns, and slot 1
     has departed already. *)
  Controller.on_renegotiate ctl ~now:2. ~call:99 ~rate:50.;
  Controller.on_depart ctl ~now:2. ~call:99;
  Controller.on_depart ctl ~now:2. ~call:1;
  Alcotest.(check int) "still one" 1 (Controller.n_in_system ctl);
  (* A departed slot may be admitted again. *)
  Controller.on_admit ctl ~now:3. ~call:1 ~rate:20.;
  Alcotest.(check int) "two again" 2 (Controller.n_in_system ctl)

(* A known call's renegotiation writes the level-indexed float arrays
   and the call's history in place: once every call has its history
   array, nothing is allocated.  The updates come from a list, so their
   floats are boxed already; [Gc.minor_words] counts its own result. *)
let test_renegotiate_allocation () =
  let ctl = Controller.memory ~capacity:1e7 ~target:1e-3 in
  let rates = [| 1e5; 2e5; 4e5 |] in
  for call = 0 to 99 do
    Controller.on_admit ctl ~now:0. ~call ~rate:rates.(call mod 3)
  done;
  (* Every call's first finalized segment allocates its history. *)
  for call = 0 to 99 do
    Controller.on_renegotiate ctl ~now:1. ~call ~rate:rates.((call + 1) mod 3)
  done;
  let steps =
    List.init 10_000 (fun i ->
        (2. +. (float_of_int i *. 1e-3), i mod 100, rates.(i mod 3)))
  in
  let renegotiate (now, call, rate) =
    Controller.on_renegotiate ctl ~now ~call ~rate
  in
  let before = Gc.minor_words () in
  List.iter renegotiate steps;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all still in" 100 (Controller.n_in_system ctl);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 renegotiations" words)
    true (words < 16.)

(* Admission, renegotiation and departure write the slot columns in
   place, and a departure zeroes the slot's history array for the next
   call on the slot: once every slot in use has one, whole call
   lifetimes over recycled slots allocate nothing. *)
let test_admission_cycle_allocation () =
  let ctl = Controller.memory ~capacity:1e7 ~target:1e-3 in
  let rates = [| 1e5; 2e5; 4e5 |] in
  for call = 0 to 99 do
    Controller.on_admit ctl ~now:0. ~call ~rate:rates.(call mod 3);
    Controller.on_renegotiate ctl ~now:1. ~call ~rate:rates.((call + 1) mod 3)
  done;
  let steps =
    List.init 10_000 (fun i ->
        (2. +. (float_of_int i *. 1e-3), i mod 100, rates.(i mod 3)))
  in
  let cycle (now, call, rate) =
    Controller.on_renegotiate ctl ~now ~call ~rate;
    Controller.on_depart ctl ~now ~call;
    Controller.on_admit ctl ~now ~call ~rate
  in
  let before = Gc.minor_words () in
  List.iter cycle steps;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all still in" 100 (Controller.n_in_system ctl);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 10 000 admission cycles" words)
    true (words < 16.)

(* --- Fast path: stats and controller-vs-oracle identity --------------- *)

let test_stats_counting () =
  let ctl = Controller.memoryless ~capacity:100. ~target:1e-3 in
  let h0 = (Controller.stats ctl).Controller.decision_hash in
  ignore (Controller.admit ctl ~now:0.);
  Controller.on_admit ctl ~now:0. ~call:1 ~rate:10.;
  ignore (Controller.admit ctl ~now:1.);
  let st = Controller.stats ctl in
  Alcotest.(check int) "decisions" 2 st.Controller.decisions;
  Alcotest.(check int) "admits" 2 st.Controller.admits;
  Alcotest.(check bool) "hash moved" true (st.Controller.decision_hash <> h0);
  Alcotest.(check bool) "solver worked" true
    (st.Controller.solver.Chernoff.Solver.fits_evals > 0)

(* Same-tick arrival storm: denials repeat at one timestamp against
   unchanged weights, so the controller must answer them from its
   stored bounds on the admission limit while producing the seed
   oracle's admit/deny sequence. *)
let test_batched_admission () =
  let capacity = 100. and target = 1e-6 in
  let ctl = Controller.memory ~capacity ~target in
  let oracle = Seed_oracle.memory ~capacity ~target in
  let now = ref 0. and denied = ref 0 in
  for call = 1 to 40 do
    let a = Controller.admit ctl ~now:!now in
    Alcotest.(check bool) "same decision" (Seed_oracle.admit oracle ~now:!now) a;
    if a then begin
      Controller.on_admit ctl ~now:!now ~call ~rate:25.;
      Seed_oracle.on_admit oracle ~now:!now ~call ~rate:25.
    end
    else incr denied;
    if call mod 10 = 0 then now := !now +. 1.
  done;
  let st = Controller.stats ctl in
  Alcotest.(check int) "decision hash identical"
    oracle.Seed_oracle.decision_hash st.Controller.decision_hash;
  Alcotest.(check bool) "storm produced denials" true (!denied > 0);
  Alcotest.(check bool) "repeat decisions served from the cache" true
    (st.Controller.batch_hits > 0)

(* A deterministic interpreter for abstract event scripts, so the same
   script can drive the controller and the oracle and qcheck can shrink
   it.  Each step advances time by [advance] and either admits a new
   call, renegotiates or departs a random live call, or just asks for a
   decision. *)
type driver = {
  admit : now:float -> bool;
  on_admit : now:float -> call:int -> rate:float -> unit;
  on_renegotiate : now:float -> call:int -> rate:float -> unit;
  on_depart : now:float -> call:int -> unit;
}

let controller c =
  {
    admit = Controller.admit c;
    on_admit = Controller.on_admit c;
    on_renegotiate = Controller.on_renegotiate c;
    on_depart = Controller.on_depart c;
  }

let oracle o =
  {
    admit = Seed_oracle.admit o;
    on_admit = Seed_oracle.on_admit o;
    on_renegotiate = Seed_oracle.on_renegotiate o;
    on_depart = Seed_oracle.on_depart o;
  }

let rates = [| 10.; 20.; 40.; 80. |]

let interpret ~advance d script =
  let next = ref 0 and active = ref [] and now = ref 0. in
  List.iter
    (fun (op, a) ->
      now := advance !now a;
      match op with
      | 0 ->
          if d.admit ~now:!now then begin
            incr next;
            d.on_admit ~now:!now ~call:!next ~rate:rates.(a mod 4);
            active := !next :: !active
          end
      | 1 -> (
          match !active with
          | [] -> ()
          | calls ->
              let call = List.nth calls (a mod List.length calls) in
              d.on_renegotiate ~now:!now ~call ~rate:rates.(a mod 4))
      | 2 -> (
          match !active with
          | [] -> ()
          | calls ->
              let call = List.nth calls (a mod List.length calls) in
              d.on_depart ~now:!now ~call;
              active := List.filter (fun c -> c <> call) !active)
      | _ -> ignore (d.admit ~now:!now))
    script;
  !now

(* Distinct times: every step moves the clock. *)
let apply_script =
  interpret ~advance:(fun now a -> now +. 0.25 +. (0.5 *. float_of_int (a mod 7)))

(* Time advancing only between ticks: repeated same-now decisions
   interleave with admissions, renegotiations and departures, so the
   decision cache both hits and changes key. *)
let apply_script_ticked =
  interpret ~advance:(fun now a ->
      if a mod 3 = 0 then now +. 0.5 +. float_of_int (a mod 5) else now)

let script_gen =
  QCheck.Gen.(
    list_size (int_range 5 80) (pair (int_range 0 3) (int_range 0 1000)))

let prop_incremental_equals_rebuild =
  (* After any event sequence, the incrementally maintained
     time-weighted aggregate matches a from-scratch rebuild from the
     per-call records to within float roundoff. *)
  QCheck.Test.make ~name:"incremental aggregate equals rebuild" ~count:200
    (QCheck.make script_gen) (fun script ->
      let ctl = Controller.memory ~capacity:150. ~target:1e-3 in
      let now = apply_script (controller ctl) script in
      Controller.debug_aggregate_deviation ctl ~now <= 1e-9)

let scheme =
  QCheck.Gen.(
    oneofl
      [
        (Controller.memory, Seed_oracle.memory);
        (Controller.memoryless, Seed_oracle.memoryless);
      ])

(* Run one script through a controller and a seed oracle built by the
   same scheme, and report whether their admit/deny sequences agree. *)
let same_sequence apply (make_ctl, make_oracle) script =
  let ctl = make_ctl ~capacity:150. ~target:1e-3 in
  let o = make_oracle ~capacity:150. ~target:1e-3 in
  ignore (apply (controller ctl) script);
  ignore (apply (oracle o) script);
  let st = Controller.stats ctl in
  st.Controller.decisions = o.Seed_oracle.decisions
  && st.Controller.admits = o.Seed_oracle.admits
  && st.Controller.decision_hash = o.Seed_oracle.decision_hash

let prop_fast_equals_legacy =
  (* The controller must reproduce the seed's (legacy, rebuild-per-
     decision) sequence bit for bit, for both measurement-based schemes,
     when every decision falls at a distinct time. *)
  QCheck.Test.make ~name:"fast and legacy decisions identical" ~count:150
    (QCheck.make QCheck.Gen.(pair scheme script_gen)) (fun (make, script) ->
      same_sequence apply_script make script)

let prop_check_mode_no_mismatch =
  (* Decision by decision: a driver that asks both the controller and
     the oracle at every step counts no disagreement, and checks every
     decision the controller makes. *)
  QCheck.Test.make ~name:"check mode finds no mismatches" ~count:150
    (QCheck.make script_gen) (fun script ->
      let ctl = Controller.memory ~capacity:150. ~target:1e-3 in
      let o = Seed_oracle.memory ~capacity:150. ~target:1e-3 in
      let c = controller ctl and r = oracle o in
      let checks = ref 0 and mismatches = ref 0 in
      let checked =
        {
          admit =
            (fun ~now ->
              let a = c.admit ~now in
              incr checks;
              if a <> r.admit ~now then incr mismatches;
              a);
          on_admit =
            (fun ~now ~call ~rate ->
              c.on_admit ~now ~call ~rate;
              r.on_admit ~now ~call ~rate);
          on_renegotiate =
            (fun ~now ~call ~rate ->
              c.on_renegotiate ~now ~call ~rate;
              r.on_renegotiate ~now ~call ~rate);
          on_depart =
            (fun ~now ~call ->
              c.on_depart ~now ~call;
              r.on_depart ~now ~call);
        }
      in
      ignore (apply_script checked script);
      !mismatches = 0 && !checks = (Controller.stats ctl).Controller.decisions)

let prop_batched_equals_per_decision =
  (* The tick-cache contract: with same-tick repeats, the controller's
     admit/deny sequence is bitwise the per-decision rebuild's. *)
  QCheck.Test.make ~name:"batched decisions = per-decision sequence" ~count:200
    (QCheck.make QCheck.Gen.(pair scheme script_gen)) (fun (make, script) ->
      same_sequence apply_script_ticked make script)

(* Arrival bursts, as megacall's ramp makes them: a history phase at
   non-integer times (one [script_gen] step per time), then bursts at
   whole-second ticks.  Each burst opens with admissions at one [now],
   enough to run past the admission limit, then mixes further steps at
   the same [now]: arrivals, departures of calls admitted in this very
   burst, and renegotiations and departures of any live call, which
   change the loaded weights mid-burst.  History times lie on a 1/8 s
   grid, so the controller's running sums and the oracle's per-call
   sums are exact and equal: off the grid, [since_sum] can round a
   call's elapsed time away when the call arrived within an ulp of the
   burst's tick.  Every rate is at least 10, so at most
   300 / 10 + 1 = 31 calls fit (the search bound of
   [Chernoff.max_calls]) and an opening of 33 admissions always runs
   past the limit. *)
type burst_step =
  | Arrive of int
  | Depart_fresh of int
  | Renegotiate of int
  | Depart of int

let burst_step_gen =
  QCheck.Gen.(
    map2
      (fun op a ->
        match op with
        | 0 | 1 -> Arrive a
        | 2 -> Depart_fresh a
        | 3 -> Renegotiate a
        | _ -> Depart a)
      (int_range 0 4) (int_range 0 1000))

let burst_script_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 25) (pair (int_range 0 3) (int_range 0 1000)))
      (list_size (int_range 1 3)
         (triple (int_range 1 2)
            (list_size (int_range 33 45) (int_range 0 3))
            (list_size (int_range 0 20) burst_step_gen))))

let apply_bursts d (history, bursts) =
  let next = ref 0 and active = ref [] and now = ref 0. in
  let arrive a =
    if d.admit ~now:!now then begin
      incr next;
      d.on_admit ~now:!now ~call:!next ~rate:rates.(a mod 4);
      active := (!next, !now) :: !active
    end
  in
  let pick calls a f =
    match calls with [] -> () | _ -> f (List.nth calls (a mod List.length calls))
  in
  let depart (call, _) =
    d.on_depart ~now:!now ~call;
    active := List.filter (fun (c, _) -> c <> call) !active
  in
  let renegotiate a (call, _) =
    d.on_renegotiate ~now:!now ~call ~rate:rates.(a mod 4)
  in
  List.iter
    (fun (op, a) ->
      now := !now +. (0.125 *. float_of_int (1 + (a mod 13)));
      match op with
      | 0 -> arrive a
      | 1 -> pick !active a (renegotiate a)
      | 2 -> pick !active a depart
      | _ -> ignore (d.admit ~now:!now))
    history;
  List.iter
    (fun (ticks, arrivals, steps) ->
      now := Float.floor !now +. float_of_int ticks;
      List.iter arrive arrivals;
      List.iter
        (function
          | Arrive a -> arrive a
          | Depart_fresh a ->
              pick (List.filter (fun (_, t) -> Float.equal t !now) !active) a depart
          | Renegotiate a -> pick !active a (renegotiate a)
          | Depart a -> pick !active a depart)
        steps)
    bursts

(* Run one burst script through a controller and a seed oracle built by
   the same scheme. *)
let run_bursts (make_ctl, make_oracle) script =
  let ctl = make_ctl ~capacity:300. ~target:1e-3 in
  let o = make_oracle ~capacity:300. ~target:1e-3 in
  apply_bursts (controller ctl) script;
  apply_bursts (oracle o) script;
  (Controller.stats ctl, o)

let prop_bursts_equal_oracle =
  (* Every decision of a burst, including those past the admission
     limit and those after a mid-burst change, is bitwise the seed
     oracle's. *)
  QCheck.Test.make ~name:"burst decisions = seed oracle" ~count:500
    (QCheck.make QCheck.Gen.(pair scheme burst_script_gen))
    (fun (make, script) ->
      let st, o = run_bursts make script in
      st.Controller.decisions = o.Seed_oracle.decisions
      && st.Controller.admits = o.Seed_oracle.admits
      && st.Controller.decision_hash = o.Seed_oracle.decision_hash)

let prop_bursts_decided_from_bounds =
  (* The same bursts pay for their decisions: repeat decisions on an
     unchanged weight vector are answered from the stored bounds, so
     the solver makes fewer [fits] probes than there are decisions. *)
  QCheck.Test.make ~name:"burst decisions served from one limit" ~count:150
    (QCheck.make QCheck.Gen.(pair scheme burst_script_gen))
    (fun (make, script) ->
      let st, _ = run_bursts make script in
      st.Controller.batch_hits > 0
      && st.Controller.solver.Chernoff.Solver.fits_evals
         < st.Controller.decisions)

let () =
  Alcotest.run "rcbr_admission"
    [
      ( "descriptor",
        [
          Alcotest.test_case "basic" `Quick test_descriptor_basic;
          Alcotest.test_case "validation" `Quick test_descriptor_validation;
          Alcotest.test_case "of schedule" `Quick test_descriptor_of_schedule;
          Alcotest.test_case "max admissible monotone" `Quick
            test_max_admissible_monotone;
          Alcotest.test_case "slack" `Quick test_max_admissible_leaves_slack;
        ] );
      ( "controller",
        [
          Alcotest.test_case "perfect limit" `Quick test_perfect_admits_to_limit;
          Alcotest.test_case "memoryless empty" `Quick
            test_memoryless_empty_system_admits;
          Alcotest.test_case "memoryless instantaneous" `Quick
            test_memoryless_uses_instantaneous_rates;
          Alcotest.test_case "memory learns" `Quick test_memory_learns_history;
          Alcotest.test_case "memory fresh fallback" `Quick
            test_memory_fresh_calls_fallback;
          Alcotest.test_case "always admit" `Quick test_always_admit;
          Alcotest.test_case "admission cycle allocation" `Quick
            test_admission_cycle_allocation;
          Alcotest.test_case "renegotiation allocation" `Quick
            test_renegotiate_allocation;
          Alcotest.test_case "departure bookkeeping" `Quick
            test_departure_bookkeeping;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "batched tick cache" `Quick test_batched_admission;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_incremental_equals_rebuild;
            prop_fast_equals_legacy;
            prop_check_mode_no_mismatch;
            prop_batched_equals_per_decision;
            prop_bursts_equal_oracle;
            prop_bursts_decided_from_bounds;
          ] );
    ]
