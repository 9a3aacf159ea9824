(* Bench-trajectory regression gate.

   Usage:
     compare.exe BASELINE_DIR [FRESH_DIR] [--max-ratio R]

   Compares every BENCH_*.json in BASELINE_DIR against the file of the
   same name in FRESH_DIR (default: current directory) and exits 1 if

   - a baseline experiment has no fresh counterpart,
   - a fresh wall_s exceeds max-ratio (default 1.5) times the baseline
     (sub-10ms baselines are skipped — pure noise), or
   - a decision/identity field is in one record and not the other, or
     differs between them:
     [decision_hashes], [result_checksum], [schedule_checksums],
     [decisions], [results_identical],
     [grid_points], [queries], [concurrent_calls],
     [audit_violations].  These capture
     the admit/deny sequences and solver answers, so a mismatch means
     the numerics changed, not just the machine.

   Timing fields other than wall_s (bechamel ns, per-sweep wall_s
   inside extras) are informational and not gated. *)

module Json = Rcbr_util.Json

let identity_fields =
  [
    "decision_hashes";
    "result_checksum";
    "schedule_checksums";
    "decisions";
    "results_identical";
    "grid_points";
    "queries";
    "concurrent_calls";
    "audit_violations";
  ]

let failures = ref 0

let fail fmt =
  Format.kasprintf
    (fun msg ->
      incr failures;
      Format.printf "FAIL %s@." msg)
    fmt

let float_of = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let compare_experiment ~max_ratio name baseline fresh =
  (match (Json.member "wall_s" baseline, Json.member "wall_s" fresh) with
  | Some b, Some f -> (
      match (float_of b, float_of f) with
      | Some b, Some f when b >= 0.01 ->
          let ratio = f /. b in
          if ratio > max_ratio then
            fail "%s: wall_s %.3fs vs baseline %.3fs (%.2fx > %.2fx)" name f b
              ratio max_ratio
          else
            Format.printf "ok   %s: wall_s %.3fs vs %.3fs (%.2fx)@." name f b
              ratio
      | _ -> Format.printf "ok   %s: wall_s below noise floor, skipped@." name)
  | _ -> Format.printf "ok   %s: no wall_s field@." name);
  List.iter
    (fun field ->
      match (Json.member field baseline, Json.member field fresh) with
      | Some b, Some f ->
          if compare b f <> 0 then
            fail "%s: %s differs (baseline %s, fresh %s)" name field
              (Json.to_string b) (Json.to_string f)
      | Some _, None -> fail "%s: %s missing from the fresh record" name field
      | None, Some _ -> fail "%s: %s missing from the baseline" name field
      | None, None -> ())
    identity_fields

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let max_ratio = ref 1.5 in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--max-ratio" :: r :: rest -> (
        match float_of_string_opt r with
        | Some v when v > 0. ->
            max_ratio := v;
            parse rest
        | _ ->
            Format.eprintf "invalid --max-ratio %S@." r;
            exit 2)
    | arg :: rest ->
        dirs := arg :: !dirs;
        parse rest
  in
  parse args;
  let baseline_dir, fresh_dir =
    match List.rev !dirs with
    | [ b ] -> (b, ".")
    | [ b; f ] -> (b, f)
    | _ ->
        Format.eprintf
          "usage: compare.exe BASELINE_DIR [FRESH_DIR] [--max-ratio R]@.";
        exit 2
  in
  let baselines = bench_files baseline_dir in
  if baselines = [] then begin
    Format.eprintf "no BENCH_*.json in %s@." baseline_dir;
    exit 2
  end;
  List.iter
    (fun file ->
      let name = Filename.chop_suffix file ".json" in
      let fresh_path = Filename.concat fresh_dir file in
      if not (Sys.file_exists fresh_path) then
        fail "%s: missing from %s" name fresh_dir
      else
        match
          ( Json.load (Filename.concat baseline_dir file),
            Json.load fresh_path )
        with
        | baseline, fresh -> compare_experiment ~max_ratio:!max_ratio name baseline fresh
        | exception Json.Parse_error msg -> fail "%s: %s" name msg)
    baselines;
  if !failures > 0 then begin
    Format.printf "@.%d regression(s) against %s@." !failures baseline_dir;
    exit 1
  end
  else Format.printf "@.all %d experiments within bounds@." (List.length baselines)
