(* The benchmark's metric vocabulary and its result line.

   [end_to_end] and [per_layer] are the names and units BENCHMARK.json
   declares, in its order; the test suite holds the two in step.  A run
   emits exactly one of the two lists: {!complete} rejects a name that
   is not declared and fills a count or ratio of a layer the workload
   never enters with 0, so every run prints every name.  Every time in
   [per_layer] comes from a probe, so none is 0. *)

module Json = Rcbr_util.Json

type t = { name : string; value : float; unit_ : string }

let end_to_end =
  [
    ("setup_s", "s");
    ("work_per_s", "1/s");
    ("latency_p50_us", "us");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    (* probes, run in every traced run *)
    ("wheel.push_ns", "ns");
    ("wheel.pop_ns", "ns");
    ("wheel.cancel_ns", "ns");
    ("store.acquire_release_ns", "ns");
    ("store.fits_ns", "ns");
    ("store.settle_ns", "ns");
    ("controller.decide_ns", "ns");
    ("controller.update_ns", "ns");
    ("controller.decide_mbac_ns", "ns");
    ("chernoff.max_calls_warm_ns", "ns");
    ("traffic.synthesize_s", "s");
    ("trellis.solve_s", "s");
    ("trellis.expanded_nodes", "count");
    ("codec.encode_ns", "ns");
    ("frame.decode_ns", "ns");
    ("switchd.input_ns", "ns");
    ("switchd.alloc_words_per_frame", "words");
    (* the traced workload's own counts and ratios; 0 off its path *)
    ("megacall.decisions", "count");
    ("megacall.events", "count");
    ("megacall.reneg_probes", "count");
    ("megacall.departures", "count");
    ("megacall.reneg_deny_ratio", "ratio");
    ("controller.batch_hit_ratio", "ratio");
    ("chernoff.memo_hit_ratio", "ratio");
    ("pool.scaling", "ratio");
    ("controller.decisions", "count");
    ("chernoff.mgf_evals_per_decision", "ratio");
    ("chernoff.fits_evals_per_decision", "ratio");
    ("mbac.straggler_ratio", "ratio");
    ("transport.wait_share", "ratio");
    ("signalling.rtt_tail_ratio", "ratio");
    ("switchd.deny_ratio", "ratio");
    ("loadgen.cells_per_req", "ratio");
    ("switchd.rss_growth_mb_per_storm", "MB");
    ("trace.overhead", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.major_collections", "count");
  ]

(* [declared] order, every declared name once.  A value the workload
   did not produce is 0 (the layer is not on its path); an undeclared
   name is a harness bug. *)
let complete ~declared values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        invalid_arg (Printf.sprintf "Metric.complete: undeclared metric %s" name))
    values;
  List.map
    (fun (name, unit_) ->
      { name; unit_; value = Option.value (List.assoc_opt name values) ~default:0. })
    declared

let to_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

(* The last line of a run's standard output. *)
let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", to_json ms);
       ])

(* Peak resident set ([VmHWM]) of a process, in MB; [None] where /proc
   is missing. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq |> int_of_string_opt
            |> Option.map (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ()
