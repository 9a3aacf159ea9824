(* rcbr_bench: the repo's end-to-end benchmark.

   Usage (from the repo root, after `dune build`):
     rcbr_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                    [--json FILE]
     rcbr_bench.exe --all [--seed N] [--seconds S] [--trace 0|1]
     rcbr_bench.exe agree DIR_A DIR_B

   One run prints its metrics as `name value unit` lines and, last, one
   JSON result line.  --trace 0 measures the end-to-end metrics; --trace
   1 runs the workload's traced job (spans, exact GC counters) and every
   layer probe, prints the per-layer metrics and writes the spans as
   JSONL under _build/rcbr-e2e/.  Exit status: 0 when every check
   passed, 1 when one failed, 2 on a usage or harness error.  See
   bench/e2e/README.md. *)

open Rcbr_e2e
module Json = Rcbr_util.Json

type entry = {
  untraced : seed:int -> seconds:float -> Workload.verdict;
  traced : seed:int -> Span.t -> Workload.traced;
}

(* [check] adds a workload's own checks of the run's outcome digest. *)
let untraced ?(check = fun ~seed:_ ~digest:_ -> []) name spec ~seed ~seconds =
  let m = Workload.measure (spec ~seed) ~seconds in
  let v = Workload.end_to_end ~workload:name ~seed m in
  let notes = v.Workload.notes @ check ~seed ~digest:v.Workload.digest in
  { v with Workload.notes; correct = notes = [] }

let workloads =
  [
    ( "megacall-ramp",
      {
        untraced = untraced "megacall-ramp" (Wl_megacall.spec Wl_megacall.Ramp);
        traced = Wl_megacall.traced Wl_megacall.Ramp;
      } );
    ( "megacall-churn",
      {
        untraced = untraced "megacall-churn" (Wl_megacall.spec Wl_megacall.Churn);
        traced = Wl_megacall.traced Wl_megacall.Churn;
      } );
    ( "mbac-grid",
      { untraced = untraced "mbac-grid" Wl_mbac_grid.spec; traced = Wl_mbac_grid.traced } );
    ( "signalling",
      {
        untraced = untraced ~check:Wl_signalling.replay_notes "signalling" Wl_signalling.spec;
        traced = Wl_signalling.traced;
      } );
  ]

let run_traced name entry ~seed =
  let spans = Span.create () in
  let t = entry.traced ~seed spans in
  let probes = Probes.all spans in
  let path = Printf.sprintf "%s/trace-%s.jsonl" (Workload.run_dir ()) name in
  Span.write_jsonl spans path;
  Printf.eprintf "rcbr_bench: %d spans written to %s\n%!" (Span.length spans) path;
  let spans_json =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [
               ("name", Json.String s.Span.name);
               ("count", Json.Int s.Span.count);
               ("total_s", Json.Float s.Span.total_s);
               ("self_s", Json.Float s.Span.self_s);
             ])
         (Span.summarize spans))
  in
  ( {
      Workload.correct = t.Workload.notes = [];
      attempted = t.Workload.attempted;
      failed = t.Workload.failed;
      notes = t.Workload.notes;
      digest = t.Workload.digest;
      metrics = Metric.complete ~declared:Metric.per_layer (t.Workload.layers @ probes);
    },
    [ ("spans", spans_json) ] )

let run_one ~workload ~seed ~seconds ~trace ~json =
  let entry =
    match List.assoc_opt workload workloads with
    | Some e -> e
    | None ->
        Printf.eprintf "rcbr_bench: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let v, extra =
    if trace then run_traced workload entry ~seed
    else (entry.untraced ~seed ~seconds, [])
  in
  List.iter (fun n -> Printf.eprintf "rcbr_bench: %s: CHECK FAILED: %s\n" workload n) v.notes;
  List.iter
    (fun m -> Printf.printf "%s %.6g %s\n" m.Metric.name m.Metric.value m.Metric.unit_)
    v.metrics;
  Option.iter
    (fun file ->
      Json.save
        (Json.Obj
           ([
              ("workload", Json.String workload);
              ("seed", Json.Int seed);
              ("seconds", Json.Float seconds);
              ("trace", Json.Bool trace);
              ("correct", Json.Bool v.correct);
              ("attempted", Json.Int v.attempted);
              ("failed", Json.Int v.failed);
              ("digest", Json.String v.digest);
              ("notes", Json.List (List.map (fun n -> Json.String n) v.notes));
              ("metrics", Metric.to_json v.metrics);
            ]
           @ extra))
        file)
    json;
  print_endline
    (Metric.result_line ~correct:v.correct ~attempted:v.attempted ~failed:v.failed
       v.metrics);
  if v.correct && v.failed = 0 then 0 else 1

(* Each workload in its own process, so the process-wide VmHWM stays
   per workload. *)
let run_all ~seed ~seconds ~trace =
  let failures =
    List.filter
      (fun (name, _) ->
        let args =
          [|
            Sys.executable_name;
            "--workload";
            name;
            "--seed";
            string_of_int seed;
            "--seconds";
            Printf.sprintf "%g" seconds;
            "--trace";
            (if trace then "1" else "0");
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let rec lines acc =
          match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
        in
        let out = lines [] in
        let status = Unix.close_process_in ic in
        (* every line but the last, the child's JSON result *)
        (match out with
        | _ :: metric_lines ->
            List.iter (fun l -> Printf.printf "%s %s\n" name l) (List.rev metric_lines)
        | [] -> ());
        status <> Unix.WEXITED 0)
      workloads
  in
  List.iter (fun (name, _) -> Printf.printf "%s FAILED\n" name) failures;
  if failures = [] then 0 else 1

let agree dir_a dir_b =
  let bounds = Agree.bounds_of_benchmark (Json.load "BENCHMARK.json") in
  let rows = Agree.compare_sets bounds (Agree.load_dir dir_a) (Agree.load_dir dir_b) in
  Agree.print_rows rows;
  if List.exists (fun r -> r.Agree.verdict = Agree.Worse) rows then 1 else 0

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let json = ref None and all = ref false and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured job time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE also write the record here");
      ("--all", Arg.Set all, " every workload, each in its own process");
    ]
  in
  let usage = "rcbr_bench.exe (--workload W | --all) [options] | agree DIR_A DIR_B" in
  Arg.parse spec (fun a -> anon := a :: !anon) usage;
  let code =
    match (List.rev !anon, !all, !workload) with
    | [ "agree"; a; b ], _, _ -> agree a b
    | [], true, _ when !trace = 0 || !trace = 1 ->
        run_all ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | [], false, w when w <> "" && (!trace = 0 || !trace = 1) ->
        run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~json:!json
    | _ ->
        prerr_endline usage;
        2
  in
  exit code
