(* What every workload shares: the measured loop, the end-to-end
   metrics derived from it, and the correctness verdict.

   A run makes [cycles] cycles.  Each sets the workload up from scratch
   (timed as set-up), runs jobs on it until the run has spent its share
   of [seconds] in jobs, and tears it down.  So [setup_s] is a median of
   [cycles] set-ups, and the rates are medians over every job of the
   run: jobs are kept under a second so that a run holds many of them
   and one slow stretch of a shared machine moves the median little. *)

let now_s () = float_of_int (Span.now_ns ()) *. 1e-9

(* Scratch files of a run (daemon socket, mesh file, span trace), under
   the build tree so they stay out of the source tree. *)
let run_dir () =
  let d = "_build/rcbr-e2e" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

type job = {
  wall_s : float;  (** the job's measured interval *)
  work : int;  (** units of work done, the numerator of [work_per_s] *)
  latencies_us : float array;  (** one per operation the user waits on *)
  attempted : int;
  failed : int;
  fingerprint : string;  (** outcome digest; equal for equal inputs *)
}

type 'env spec = {
  setup : unit -> 'env;
  job : 'env -> job;
  teardown : 'env -> int;  (** failures found on the way out *)
  peak_rss_mb : 'env -> float option;
      (** peak RSS of the process doing the work ({!Metric.peak_rss_mb}),
          read before teardown *)
}

(* The bench process itself does the work. *)
let own_rss _ = Metric.peak_rss_mb None

type measured = {
  setups_s : float array;
  jobs : job array;
  teardown_failures : int;
  rss_mb : float option;  (** the highest peak RSS over the cycles *)
}

let cycles = 5

let measure spec ~seconds =
  let setups = Array.make cycles 0. and jobs = ref [] and busy = ref 0. in
  let failures = ref 0 and rss = ref None in
  for k = 1 to cycles do
    let t0 = now_s () in
    let env = spec.setup () in
    setups.(k - 1) <- now_s () -. t0;
    let share = seconds *. float_of_int k /. float_of_int cycles in
    let cycle_rss =
      Fun.protect
        ~finally:(fun () -> failures := !failures + spec.teardown env)
        (fun () ->
          let first = ref true in
          while !first || !busy < share do
            first := false;
            let j = spec.job env in
            busy := !busy +. j.wall_s;
            jobs := j :: !jobs
          done;
          spec.peak_rss_mb env)
    in
    rss :=
      match (!rss, cycle_rss) with
      | Some a, Some b -> Some (Float.max a b)
      | a, None -> a
      | None, b -> b
  done;
  {
    setups_s = setups;
    jobs = Array.of_list (List.rev !jobs);
    teardown_failures = !failures;
    rss_mb = !rss;
  }

type verdict = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Metric.t list;
  notes : string list;  (** why [correct] is false, one line each *)
  digest : string;  (** the run's outcome digest, as expected.json pins it *)
}

(* Outcome digests at the pinned seed, from bench/e2e/expected.json. *)
let expected_file = "bench/e2e/expected.json"

let pinned ~workload ~seed =
  match Rcbr_util.Json.load expected_file with
  | exception (Sys_error _ | Rcbr_util.Json.Parse_error _) -> None
  | j -> (
      match
        (Rcbr_util.Json.member "seed" j, Rcbr_util.Json.member workload j)
      with
      | Some (Rcbr_util.Json.Int s), Some (Rcbr_util.Json.String h) when s = seed
        ->
          Some h
      | _ -> None)

(* Fingerprint checks shared by both modes: every job of the run gave the
   same digest, and at the pinned seed it is the committed one. *)
let fingerprint_notes ~workload ~seed fingerprints =
  match fingerprints with
  | [] -> [ "no job completed" ]
  | f :: rest ->
      (if List.for_all (String.equal f) rest then []
       else [ "outcome digest differs between jobs of one run" ])
      @
      match pinned ~workload ~seed with
      | Some h when not (String.equal h f) ->
          [ Printf.sprintf "outcome digest %s, expected %s at seed %d" f h seed ]
      | _ -> []

let end_to_end ~workload ~seed (m : measured) =
  let jobs = Array.to_list m.jobs in
  let sum f = List.fold_left (fun acc j -> acc + f j) 0 jobs in
  let rate j = float_of_int j.work /. j.wall_s in
  let latencies = Array.concat (List.map (fun j -> j.latencies_us) jobs) in
  let notes =
    fingerprint_notes ~workload ~seed (List.map (fun j -> j.fingerprint) jobs)
    @ (if Option.is_none m.rss_mb then [ "no VmHWM in /proc" ] else [])
  in
  {
    correct = notes = [];
    attempted = sum (fun j -> j.attempted);
    failed = sum (fun j -> j.failed) + m.teardown_failures;
    notes;
    digest = (match jobs with j :: _ -> j.fingerprint | [] -> "");
    metrics =
      Metric.complete ~declared:Metric.end_to_end
        [
          ("setup_s", Pct.median m.setups_s);
          ("work_per_s", Pct.median (Array.of_list (List.map rate jobs)));
          ("latency_p50_us", Pct.median latencies);
          ("peak_rss_mb", Option.value m.rss_mb ~default:0.);
        ];
  }

(* What a workload's traced run reports besides its spans: its own layer
   metrics (the probes and the rest are added by the caller) and the
   checks it made. *)
type traced = {
  layers : (string * float) list;
  notes : string list;
  digest : string;
  attempted : int;
  failed : int;
}

(* GC counter deltas over [f], for the traced run's allocation metrics.
   Exact only on one domain, which is why the traced run uses [jobs = 1]. *)
let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    ( b.Gc.minor_words -. a.Gc.minor_words,
      b.Gc.major_words -. a.Gc.major_words,
      b.Gc.major_collections - a.Gc.major_collections ) )

let gc_metrics ~ops (minor, major, collections) =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", per minor);
    ("gc.major_words_per_op", per major);
    ("gc.major_collections", float_of_int collections);
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
