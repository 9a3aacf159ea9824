(* Tests for the end-to-end benchmark harness (bench/e2e). *)

open Rcbr_e2e
module Json = Rcbr_util.Json
module Loadgen = Rcbr_wire.Loadgen

let check_float = Alcotest.(check (float 1e-9))

(* --- percentiles --- *)

let test_percentile_rule () =
  let supported n p = Alcotest.(check bool) (Printf.sprintf "p%g of %d" p n) in
  supported 1000 99. true (Pct.supported ~n:1000 99.);
  supported 999 99. false (Pct.supported ~n:999 99.);
  let highest n = Pct.highest_supported ~n [ 50.; 90.; 99. ] in
  let check_p n expected =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "highest of %d" n) expected (highest n)
  in
  check_p 820_000 (Some 99.);
  check_p 1000 (Some 99.);
  check_p 999 (Some 90.);
  check_p 100 (Some 90.);
  check_p 20 (Some 50.);
  check_p 19 None;
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "nearest-rank p99" 99. (Pct.percentile xs 99.);
  check_float "nearest-rank p50" 50. (Pct.percentile xs 50.)

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
   statistics.median([1, 2, 3, 10]) == 2.5 in Python. *)
let test_quartiles_match_python () =
  let q1, q3 = Pct.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  check_float "q1" 2.75 q1;
  check_float "q3" 8.25 q3;
  check_float "even median" 2.5 (Pct.median [| 10.; 1.; 3.; 2. |]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5)
    (Pct.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* --- spans --- *)

(* root [0,100) holds a [10,40) and b [30,60), which overlap, and c
   [90,120), which outlives it; a holds g [15,20). *)
let test_span_self_time () =
  let t = Span.create () in
  let root = Span.add t "root" ~start:0 ~stop:100 in
  let a = Span.add t ~parent:root "a" ~start:10 ~stop:40 in
  let b = Span.add t ~parent:root "b" ~start:30 ~stop:60 in
  let c = Span.add t ~parent:root "c" ~start:90 ~stop:120 in
  let g = Span.add t ~parent:a ~req:7 "g" ~start:15 ~stop:20 in
  let self = Span.self_ns t in
  let check name i expected = Alcotest.(check int) name expected self.(i) in
  check "root: 100 - union(10..60, 90..100)" root 40;
  check "a: 30 - 5" a 25;
  check "b: no children" b 30;
  check "c: no children" c 30;
  check "g: leaf" g 5;
  let by_name = List.map (fun s -> (s.Span.name, s)) (Span.summarize t) in
  Alcotest.(check (list string))
    "summary in name order" [ "a"; "b"; "c"; "g"; "root" ] (List.map fst by_name);
  check_float "root self seconds" 40e-9 (List.assoc "root" by_name).Span.self_s

(* --- metric names --- *)

let declared section =
  let j = Json.load "../../../BENCHMARK.json" in
  match Json.member section j with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail ("malformed entry in " ^ section))
        ms
  | _ -> Alcotest.fail ("no " ^ section ^ " in BENCHMARK.json")

let test_metric_names () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" (declared "end_to_end") Metric.end_to_end;
  Alcotest.check pairs "per_layer" (declared "per_layer") Metric.per_layer;
  let emitted = Metric.complete ~declared:Metric.end_to_end [ ("setup_s", 1.5) ] in
  Alcotest.(check (list string))
    "every declared name, in order" (List.map fst Metric.end_to_end)
    (List.map (fun m -> m.Metric.name) emitted);
  Alcotest.check_raises "undeclared name"
    (Invalid_argument "Metric.complete: undeclared metric latency_p99_us") (fun () ->
      ignore (Metric.complete ~declared:Metric.end_to_end [ ("latency_p99_us", 1.) ]))

(* --- agree --- *)

let test_agree_verdicts () =
  let bound = { Agree.metric = "work_per_s"; higher_is_better = true; bound = 0.1 } in
  let verdict a b = Agree.verdict_name (Agree.judge bound a b) in
  let check name expected a b = Alcotest.(check string) name expected (verdict a b) in
  let steady x = [| x; x *. 1.01; x *. 0.99; x *. 1.005; x *. 0.995 |] in
  check "same" "ok" (steady 100.) (steady 100.);
  check "5% slower" "ok" (steady 100.) (steady 95.);
  check "20% slower" "worse" (steady 100.) (steady 80.);
  let noisy x = [| x; x *. 1.3; x *. 0.7; x *. 1.2; x *. 0.8 |] in
  check "noisy" "unresolved" (noisy 100.) (noisy 100.);
  check "noisy but always faster" "ok" (noisy 100.) (noisy 300.)

(* --- the measured loop --- *)

(* Jobs of a fixed 1 s against a 3 s run: every one of the cycles
   still runs a job, and failures found at teardown are counted. *)
let test_measure_cycles () =
  let setups = ref 0 and teardowns = ref 0 in
  let spec =
    {
      Workload.setup = (fun () -> incr setups);
      job =
        (fun () ->
          {
            Workload.wall_s = 1.;
            work = 10;
            latencies_us = [| 5. |];
            attempted = 10;
            failed = 0;
            fingerprint = "x";
          });
      teardown =
        (fun () ->
          incr teardowns;
          1);
      peak_rss_mb = (fun () -> Some 2.);
    }
  in
  let m = Workload.measure spec ~seconds:3. in
  Alcotest.(check int) "set-ups" Workload.cycles !setups;
  Alcotest.(check int) "teardowns" Workload.cycles !teardowns;
  Alcotest.(check int) "one job per cycle" Workload.cycles (Array.length m.Workload.jobs);
  Alcotest.(check int) "teardown failures" Workload.cycles m.Workload.teardown_failures;
  let v = Workload.end_to_end ~workload:"none" ~seed:0 m in
  Alcotest.(check int) "failed counts teardowns" Workload.cycles v.Workload.failed;
  Alcotest.(check bool) "digests agree" true v.Workload.correct

(* --- signalling replay --- *)

let test_replay_stable () =
  let ops () =
    Loadgen.storm ~topology:(Wl_signalling.topology ()) ~calls:256 ~rounds:8
      ~rate_max:1e5 ~rm_fraction:0.25 ~seed:3 ~conns:Wl_signalling.conns
    |> Array.map Array.of_list
  in
  let a = Wl_signalling.replay (ops ()) and b = Wl_signalling.replay (ops ()) in
  Alcotest.(check string) "digest" a.Wl_signalling.r_tally.digest b.Wl_signalling.r_tally.digest;
  Alcotest.(check int) "drained clean" 0 a.Wl_signalling.audit;
  Alcotest.(check bool) "requests replied" true (a.Wl_signalling.r_tally.requests > 256)

let () =
  Alcotest.run "rcbr_e2e"
    [
      ( "e2e",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles_match_python;
          Alcotest.test_case "span self time" `Quick test_span_self_time;
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_metric_names;
          Alcotest.test_case "agree verdicts" `Quick test_agree_verdicts;
          Alcotest.test_case "measure cycles" `Quick test_measure_cycles;
          Alcotest.test_case "in-process signalling replay" `Quick test_replay_stable;
        ] );
    ]
