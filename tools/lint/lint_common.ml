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
    ("SUPP", "suppression comment references an unknown rule id");
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
   worse than a loud one. *)

let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_upper c || is_digit c || (c >= 'a' && c <= 'z')

type suppressions = {
  grants : (int * string) list;  (** (line, rule) inline grants *)
  supp_errors : violation list;  (** unknown rule ids ([SUPP]) *)
}

let scan_suppressions ~file source =
  let out = ref [] in
  let errors = ref [] in
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let n_lines = Array.length lines in
  let find_sub line sub from =
    let len = String.length line and sl = String.length sub in
    let rec go p =
      if p + sl > len then None
      else if String.sub line p sl = sub then Some p
      else go (p + 1)
    in
    go from
  in
  Array.iteri
    (fun i line ->
      let len = String.length line in
      match find_sub line "lint:" 0 with
      | None -> ()
      | Some marker ->
          let pos = marker + 5 in
          let skip_ws p =
            let p = ref p in
            while !p < len && (line.[!p] = ' ' || line.[!p] = '\t') do
              incr p
            done;
            !p
          in
          let pos = skip_ws pos in
          if pos + 5 <= len && String.sub line pos 5 = "allow" then begin
            let pos = ref (skip_ws (pos + 5)) in
            let rules_found = ref [] in
            let continue = ref true in
            while !continue do
              let start = !pos in
              while !pos < len && is_upper line.[!pos] do
                incr pos
              done;
              let letters = !pos > start in
              let digits_start = !pos in
              while !pos < len && is_digit line.[!pos] do
                incr pos
              done;
              if letters && !pos > digits_start then begin
                rules_found :=
                  String.sub line start (!pos - start) :: !rules_found;
                let p = skip_ws !pos in
                if p < len && line.[p] = ',' then pos := skip_ws (p + 1)
                else begin
                  pos := p;
                  continue := false
                end
              end
              else begin
                pos := start;
                continue := false
              end
            done;
            (* The comment may span lines; the suppression anchors to the
               line holding the closing "*)", and the reason — mandatory —
               is everything between the rule list and that close. *)
            let close_line = ref i in
            let reasoned = ref false in
            let check_span line from upto =
              for p = from to upto - 1 do
                if is_alnum line.[p] then reasoned := true
              done
            in
            (match find_sub line "*)" !pos with
            | Some close -> check_span line !pos close
            | None ->
                check_span line !pos len;
                let j = ref (i + 1) in
                let found = ref false in
                while (not !found) && !j < n_lines && !j <= i + 10 do
                  (match find_sub lines.(!j) "*)" 0 with
                  | Some close ->
                      check_span lines.(!j) 0 close;
                      close_line := !j;
                      found := true
                  | None -> check_span lines.(!j) 0 (String.length lines.(!j)));
                  incr j
                done;
                if not !found then close_line := i);
            List.iter
              (fun r ->
                if not (List.mem r all_rule_ids) then
                  errors :=
                    {
                      file;
                      line = i + 1;
                      rule = "SUPP";
                      message =
                        Printf.sprintf
                          "suppression references unknown rule id %s, so it \
                           would grant nothing"
                          r;
                    }
                    :: !errors
                else if !reasoned then
                  out := (!close_line + 1, r) :: !out)
              !rules_found
          end)
    lines;
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
   dead-grant check knows which grants still pull their weight. *)

type reporter = {
  mutable out : violation list;
  mutable inline_suppressed : (string * string) list;  (** (file, rule) *)
  mutable grant_suppressed : (string * string) list;  (** (file, rule) *)
}

let make_reporter () =
  { out = []; inline_suppressed = []; grant_suppressed = [] }

let report rep ~supps ~allowlist ~file ~line ~rule message =
  if List.exists (fun (l, r) -> r = rule && (l = line || l = line - 1)) supps
  then rep.inline_suppressed <- (file, rule) :: rep.inline_suppressed
  else if
    List.exists (fun g -> g.g_rule = rule && g.g_file = file) allowlist
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
    let inl = count (fun (_, r) -> r = id) rep.inline_suppressed in
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
