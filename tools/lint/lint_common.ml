(* Reporting machinery of the determinism analyzer (DESIGN.md §14).

   The rule registry, the violation type, the suppression grammar, the
   allowlist format, the output formats (text, JSON, SARIF) and the
   per-rule summary table live here, apart from the analysis passes in
   Tlint, so the grammar that [(* lint: allow D002, T001 — reason *)]
   follows is written down in exactly one place. *)

type violation = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

(* --- rule registry ---------------------------------------------------- *)

(* Report order: the per-occurrence identifier rules, then the
   whole-program passes. *)
let rules =
  [
    ("D001", "no Random.* outside lib/util/rng.ml (use Rcbr_util.Rng)");
    ("D002", "no order-dependent Hashtbl.iter/fold in result-producing code");
    ("D003", "no wall-clock reads outside bench/");
    ("F001", "no polymorphic =/compare/min/max instantiated at a float type");
    ("F002", "no comparison against nan (use Float.is_nan)");
    ("P001", "no Obj.magic");
    ("T001", "no determinism source reaching an outcome hash or result sink");
    ("T002", "no address-based Hashtbl.hash on closures or mutable values");
    ("E001", "no shared mutable state written inside a Pool/Domain task");
    ("U001", "no arithmetic/comparison between mismatched dimensions");
    ("U002", "no passing a value of one dimension where another is declared");
    ("R001", "no library definition that only tests reach");
  ]

(* Meta diagnostics raised by the harness itself; not suppressible. *)
let meta_rules =
  [
    ("PARSE", "source failed to parse or type");
    ("SUPP", "suppression names an unknown rule id, or an R001 grant no kind");
    ("GRANT", "grant is dead (matches no occurrence) or invalid");
    ("SINK", "configured T001 sink names no definition in the analysed units");
  ]

let all_rule_ids = List.map fst (rules @ meta_rules)

(* --- paths ------------------------------------------------------------ *)

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun c -> if c = '\\' then '/' else c) path

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let discover roots =
  let files = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          if entry <> "_build" && entry.[0] <> '.' then
            walk (Filename.concat path entry))
        (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then
      files := normalize path :: !files
  in
  List.iter (fun r -> if Sys.file_exists r then walk r) roots;
  List.sort compare !files

(* --- suppression comments --------------------------------------------- *)

(* [(* lint: allow D002, T001 — reason *)] on the violation's own line
   or the line above.  The reason is mandatory: a bare [lint: allow
   D002] grants nothing, so every suppression in the tree documents
   itself.  An unknown rule id is an error ([SUPP]), never a
   silent no-op — a typo'd suppression that quietly grants nothing is
   worse than a loud one.  A grant is a comment: the compiler's own
   lexer finds them, so a fixture quoted in a string grants nothing.
   An R001 grant names its kind first — [probe:] (read-only code a test
   checks programs' code with) or [fixture:] (code a test builds its
   inputs with), DESIGN.md §14 — because test-only code is no reason for
   a grant; one that names neither is a [SUPP] error too. *)

let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_upper c || is_digit c || (c >= 'a' && c <= 'z')

type suppressions = {
  grants : (int * string) list;  (** (line, rule) inline grants *)
  supp_errors : violation list;
      (** unknown rule ids and kindless R001 grants ([SUPP]) *)
}

(* Every comment of [source] with the lines it starts and ends on.  A
   source the lexer rejects yields the comments before the error (the
   typed tree reports the source itself). *)
let comments source =
  let warnings = Warnings.backup () in
  ignore (Warnings.parse_options false "-a" : Warnings.alert option);
  Docstrings.init ();
  Lexer.init ();
  let lexbuf = Lexing.from_string source in
  let rec drain () =
    match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
  in
  (try drain () with Lexer.Error _ -> ());
  Warnings.restore warnings;
  List.map
    (fun (text, (loc : Location.t)) ->
      (text, loc.loc_start.pos_lnum, loc.loc_end.pos_lnum))
    (Lexer.comments ())

let find_sub s sub from =
  let len = String.length s and sl = String.length sub in
  let rec go p =
    if p + sl > len then None
    else if String.sub s p sl = sub then Some p
    else go (p + 1)
  in
  go from

(* The reason proper: the comment's rest after the rule list, without
   the dash ("—" or "--") that separates the two. *)
let reason_at text p =
  let len = String.length text in
  let em_dash = "\xe2\x80\x94" in
  let rec skip p =
    if p < len && String.contains " \t\n-" text.[p] then skip (p + 1)
    else if p + 3 <= len && String.sub text p 3 = em_dash then skip (p + 3)
    else p
  in
  let p = skip p in
  String.sub text p (len - p)

let grant_kinds = [ "probe:"; "fixture:" ]

(* One comment's grant: [lint:], [allow], a comma-separated rule list,
   then the reason — the rest of the comment, which must hold a letter
   or digit.  Anchored to the line holding the closing "*)". *)
let scan_comment ~file ~out ~errors (text, first, last) =
  match find_sub text "lint:" 0 with
  | None -> ()
  | Some marker ->
      let len = String.length text in
      let rec skip p ok =
        if p < len && ok text.[p] then skip (p + 1) ok else p
      in
      let skip_ws p = skip p (fun c -> c = ' ' || c = '\t') in
      let pos = skip_ws (marker + 5) in
      if pos + 5 <= len && String.sub text pos 5 = "allow" then begin
        (* Rule ids (capitals, then digits), and where the reason starts. *)
        let rec rules acc p =
          let letters_end = skip p is_upper in
          let id_end = skip letters_end is_digit in
          if letters_end > p && id_end > letters_end then
            let acc = String.sub text p (id_end - p) :: acc in
            let q = skip_ws id_end in
            if q < len && text.[q] = ',' then rules acc (skip_ws (q + 1))
            else (acc, q)
          else (acc, p)
        in
        let found, reason_start = rules [] (skip_ws (pos + 5)) in
        let reasoned = ref false in
        for p = reason_start to len - 1 do
          if is_alnum text.[p] then reasoned := true
        done;
        let marker_line = ref first in
        for p = 0 to marker - 1 do
          if text.[p] = '\n' then incr marker_line
        done;
        let supp message =
          errors :=
            { file; line = !marker_line; rule = "SUPP"; message } :: !errors
        in
        let reason = reason_at text reason_start in
        let kinded =
          List.exists (fun prefix -> String.starts_with ~prefix reason)
            grant_kinds
        in
        List.iter
          (fun r ->
            if not (List.mem r all_rule_ids) then
              supp
                (Printf.sprintf
                   "suppression references unknown rule id %s, so it would \
                    grant nothing"
                   r)
            else if r = "R001" && !reasoned && not kinded then
              supp
                "R001 grant names no kind, so it grants nothing: start its \
                 reason with probe: or fixture: (test-only code is no \
                 reason for a grant; delete it with its tests)"
            else if !reasoned then out := (last, r) :: !out)
          found
      end

let scan_suppressions ~file source =
  let out = ref [] and errors = ref [] in
  List.iter (scan_comment ~file ~out ~errors) (comments source);
  { grants = !out; supp_errors = List.rev !errors }

(* --- allowlist -------------------------------------------------------- *)

type grant = {
  g_file : string;  (** normalized path the grant covers *)
  g_rule : string;
  g_reason : string;
  g_line : int;  (** line in the allowlist file, for dead-grant reports *)
}

let load_allowlist path =
  let ic = open_in path in
  let grants = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then begin
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | file :: rule :: (_ :: _ as reason) ->
             if not (List.mem rule all_rule_ids) then
               failwith
                 (Printf.sprintf
                    "%s:%d: allowlist grant names unknown rule %s" path
                    !lineno rule);
             grants :=
               {
                 g_file = normalize file;
                 g_rule = rule;
                 g_reason = String.concat " " reason;
                 g_line = !lineno;
               }
               :: !grants
         | _ ->
             failwith
               (Printf.sprintf
                  "%s:%d: allowlist grants are '<path> <RULE> <reason...>' \
                   — the reason is mandatory"
                  path !lineno)
       end
     done
   with End_of_file -> close_in ic);
  List.rev !grants

(* --- reporting -------------------------------------------------------- *)

(* One reporter per run.  [report] consults the per-file inline
   suppressions and the allowlist; what it absorbs is counted, so the
   summary table can show suppressions next to findings and the
   dead-grant checks know which grants still pull their weight. *)

type reporter = {
  mutable out : violation list;
  mutable inline_suppressed : (string * int * string) list;
      (** (file, grant line, rule) *)
  mutable grant_suppressed : (string * string) list;  (** (file, rule) *)
}

let make_reporter () =
  { out = []; inline_suppressed = []; grant_suppressed = [] }

let inline_grant supps ~line ~rule =
  List.find_map
    (fun (l, r) ->
      if r = rule && (l = line || l = line - 1) then Some l else None)
    supps

let report rep ~supps ~allowlist ~file ~line ~rule message =
  match inline_grant supps ~line ~rule with
  | Some l -> rep.inline_suppressed <- (file, l, rule) :: rep.inline_suppressed
  | None ->
      if List.exists (fun g -> g.g_rule = rule && g.g_file = file) allowlist
      then rep.grant_suppressed <- (file, rule) :: rep.grant_suppressed
      else rep.out <- { file; line; rule; message } :: rep.out

let raw rep v = rep.out <- v :: rep.out

let sort_violations vs =
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> (
          match compare a.line b.line with
          | 0 -> compare (a.rule, a.message) (b.rule, b.message)
          | c -> c)
      | c -> c)
    vs

(* A grant that absorbed nothing this run is dead: the occurrence it
   documented is gone, and leaving it in place would silently cover the
   next occurrence, whatever it is. *)
let dead_grants ~allowlist_file rep grants =
  List.filter_map
    (fun g ->
      if
        not
          (List.exists
             (fun (f, r) -> f = g.g_file && r = g.g_rule)
             rep.grant_suppressed)
      then
        Some
          {
            file = allowlist_file;
            line = g.g_line;
            rule = "GRANT";
            message =
              Printf.sprintf
                "dead grant: %s %s matches no occurrence in the tree — \
                 delete it (reason was: %s)"
                g.g_file g.g_rule g.g_reason;
          }
      else None)
    grants

(* The same for inline grants.  R001 grants are left to the
   reachability pass, which reports one on reached code as stale. *)
let dead_inline_grants rep ~file grants =
  List.filter_map
    (fun (line, rule) ->
      if rule = "R001" || List.mem (file, line, rule) rep.inline_suppressed
      then None
      else
        Some
          {
            file;
            line;
            rule = "GRANT";
            message =
              Printf.sprintf
                "dead inline grant: %s absorbs nothing on this line or the \
                 next — delete it"
                rule;
          })
    grants

(* --- output: text / JSON / SARIF -------------------------------------- *)

let print_text vs =
  List.iter
    (fun v ->
      Printf.printf "%s:%d:%s: %s\n" v.file v.line v.rule v.message)
    vs

(* Hand-rolled emission so the analyzer depends on nothing but
   compiler-libs (it lints the JSON library it would otherwise
   link). *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_violations ~files_scanned vs =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"tool\":\"rcbr_lint\",\"files_scanned\":%d,\"violations\":["
       files_scanned);
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
           (json_escape v.file) v.line (json_escape v.rule)
           (json_escape v.message)))
    vs;
  Buffer.add_string b "]}";
  Buffer.contents b

(* Minimal SARIF 2.1.0: enough for GitHub code-scanning annotations
   (ruleId + message + physicalLocation with file/line). *)
let sarif_of_violations vs =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",";
  Buffer.add_string b "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
  Buffer.add_string b "\"name\":\"rcbr_lint\",\"rules\":[";
  List.iteri
    (fun i (id, descr) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
           (json_escape id) (json_escape descr)))
    (rules @ meta_rules);
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d}}}]}"
           (json_escape v.rule) (json_escape v.message) (json_escape v.file)
           (max 1 v.line)))
    vs;
  Buffer.add_string b "]}]}";
  Buffer.contents b

(* --- per-rule summary table ------------------------------------------- *)

let count p xs = List.length (List.filter p xs)

let summary_table rep =
  let vs = rep.out in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-6s %9s %11s %11s  %s\n" "rule" "findings" "inline"
       "allowlist" "description");
  let row id descr =
    let fired = count (fun v -> v.rule = id) vs in
    let inl = count (fun (_, _, r) -> r = id) rep.inline_suppressed in
    let grt = count (fun (_, r) -> r = id) rep.grant_suppressed in
    Buffer.add_string b
      (Printf.sprintf "%-6s %9d %11d %11d  %s\n" id fired inl grt descr)
  in
  List.iter (fun (id, descr) -> row id descr) rules;
  List.iter
    (fun (id, descr) ->
      if count (fun v -> v.rule = id) vs > 0 then row id descr)
    meta_rules;
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc
