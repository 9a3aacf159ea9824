(* rcbr_lint.exe — the determinism analyzer (DESIGN.md §14).

   Usage:
     rcbr_lint.exe [--allowlist FILE] [--units FILE] [--json[=FILE]]
                   [--sarif FILE] [--summary] [--list-rules] [DIR]

   Loads the .cmt files dune produced under DIR/lib, DIR/bin,
   DIR/bench, DIR/test and DIR/examples (DIR defaults to the current
   directory, which the dune alias [@lint] makes _build/default), runs
   every rule over the whole program, and exits 1 on any unsuppressed
   finding.  A .ml under lib/ bin/ bench/ test/ examples/ (relative to
   the current directory) with no loaded typed tree is a finding too,
   and so are an allowlist grant that absorbed nothing and a T001 sink
   that names no definition. *)

module C = Rcbr_lint_core.Lint_common
module T = Rcbr_lint_core.Tlint

let roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let rec find_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then find_cmts acc path
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

let usage () =
  prerr_endline
    "usage: rcbr_lint.exe [--allowlist FILE] [--units FILE] [--json[=FILE]] \
     [--sarif FILE] [--summary] [--list-rules] [DIR]";
  exit 2

let () =
  let allowlist_file = ref None in
  let units_file = ref None in
  let json = ref None in
  let sarif = ref None in
  let summary = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allowlist" :: file :: rest ->
        allowlist_file := Some file;
        parse rest
    | [ "--allowlist" ] -> usage ()
    | "--units" :: file :: rest ->
        units_file := Some file;
        parse rest
    | [ "--units" ] -> usage ()
    | "--json" :: rest ->
        json := Some None;
        parse rest
    | "--sarif" :: file :: rest ->
        sarif := Some file;
        parse rest
    | [ "--sarif" ] -> usage ()
    | "--summary" :: rest ->
        summary := true;
        parse rest
    | "--list-rules" :: _ ->
        List.iter
          (fun (id, descr) -> Printf.printf "%s  %s\n" id descr)
          C.rules;
        exit 0
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest when C.has_prefix ~prefix:"--json=" arg ->
        json := Some (Some (String.sub arg 7 (String.length arg - 7)));
        parse rest
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dir = match !dirs with [] -> "." | d :: _ -> d in
  let grants =
    match !allowlist_file with
    | None -> []
    | Some f -> (
        try C.load_allowlist f
        with Failure m ->
          prerr_endline ("rcbr_lint: " ^ m);
          exit 2)
  in
  let units =
    match !units_file with
    | None -> []
    | Some f -> (
        try T.parse_units (C.read_file f)
        with Failure m | Sys_error m ->
          prerr_endline ("rcbr_lint: " ^ m);
          exit 2)
  in
  let config = T.repo_config ~units ~allow_grants:grants () in
  let cmts =
    List.sort compare
      (List.concat_map
         (fun root -> find_cmts [] (Filename.concat dir root))
         roots)
  in
  let r = T.run_cmts ~config ~roots cmts in
  Option.iter
    (fun f ->
      List.iter (C.raw r.T.reporter)
        (C.dead_grants ~allowlist_file:f r.T.reporter grants))
    !allowlist_file;
  let violations = C.sort_violations r.T.reporter.C.out in
  (match !json with
  | None -> C.print_text violations
  | Some dest -> (
      let s =
        C.json_of_violations ~files_scanned:r.T.units_scanned violations
      in
      match dest with
      | None -> print_endline s
      | Some file -> C.write_file file s));
  (match !sarif with
  | None -> ()
  | Some file ->
      C.write_file file (C.sarif_of_violations violations));
  if !summary then begin
    print_newline ();
    print_string (C.summary_table r.T.reporter)
  end;
  if violations = [] then begin
    Printf.printf "rcbr_lint: %d compilation units clean\n" r.T.units_scanned;
    exit 0
  end
  else begin
    Printf.printf "rcbr_lint: %d violation(s) over %d compilation units\n"
      (List.length violations) r.T.units_scanned;
    exit 1
  end
