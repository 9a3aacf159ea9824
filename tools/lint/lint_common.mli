(** Reporting machinery of the determinism analyzer ({!Tlint},
    DESIGN.md §14): the rule registry, one violation type, one
    suppression grammar, one allowlist format, the report formats (text
    / JSON / SARIF) and the per-rule summary table.  One inline comment
    can silence several rules at once —
    [(* lint: allow D002, T001 — reason *)]. *)

type violation = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

val rules : (string * string) list
(** [(id, one-line description)] for every rule, in report order:
    D001–D003, F001–F002, P001 (per occurrence), then T001–T002
    (determinism taint), E001 (Pool escape), U001–U002 (units of
    measure), R001 (library code no program reaches). *)

val meta_rules : (string * string) list
(** PARSE / SUPP / GRANT / SINK — harness diagnostics, not
    suppressible. *)

val all_rule_ids : string list
(** Every rule id plus the meta ids; the vocabulary suppression
    comments and allowlist grants are validated against. *)

(** {1 Paths and files} *)

val normalize : string -> string
val has_prefix : prefix:string -> string -> bool
val read_file : string -> string

val discover : string list -> string list
(** Recursively collect the [.ml] files under the roots, sorted;
    [_build] and dot-directories are skipped. *)

(** {1 Suppressions} *)

type suppressions = {
  grants : (int * string) list;  (** (line, rule) inline grants *)
  supp_errors : violation list;
      (** [SUPP] violations for unknown rule ids — a typo'd
          suppression is an error, never a silent no-op — and for R001
          grants that name no kind *)
}

val scan_suppressions : file:string -> string -> suppressions
(** Scan one source's comments, as the compiler's lexer reads them, for
    [(* lint: allow RULE[, RULE...] — reason *)].  The reason is
    mandatory; a multi-line comment anchors its grant to the line
    holding the closing ["*)"].  Text inside a string literal is no
    comment, so it grants nothing.  An R001 grant's reason must start
    with its kind, [probe:] or [fixture:] (DESIGN.md §14); one that
    does not grants nothing and is a [SUPP] violation. *)

(** {1 Allowlist} *)

type grant = {
  g_file : string;  (** normalized path the grant covers *)
  g_rule : string;
  g_reason : string;
  g_line : int;  (** line in the allowlist file, for dead-grant reports *)
}

val load_allowlist : string -> grant list
(** Parse [<path> <RULE> <reason...>] lines ([#] comments and blanks
    skipped).  Missing reasons and unknown rule ids are rejected with
    [Failure]. *)

(** {1 Reporting} *)

type reporter = {
  mutable out : violation list;
  mutable inline_suppressed : (string * int * string) list;
      (** (file, grant line, rule) *)
  mutable grant_suppressed : (string * string) list;  (** (file, rule) *)
}

val make_reporter : unit -> reporter

val inline_grant : (int * string) list -> line:int -> rule:string -> int option
(** The line of the inline grant that absorbs a [rule] report at
    [line] (a grant on the same line or the line above), if any. *)

val report :
  reporter ->
  supps:(int * string) list ->
  allowlist:grant list ->
  file:string ->
  line:int ->
  rule:string ->
  string ->
  unit
(** File a violation unless an inline suppression (same or preceding
    line) or an allowlist grant absorbs it; absorbed reports are
    counted for the summary table and the dead-grant check. *)

val raw : reporter -> violation -> unit
(** File a violation bypassing suppression (PARSE/SUPP/GRANT). *)

val sort_violations : violation list -> violation list
(** Stable report order: file, then line, then (rule, message). *)

val dead_grants :
  allowlist_file:string -> reporter -> grant list -> violation list
(** [GRANT] violations for allowlist entries that absorbed nothing
    this run (dead grants rot silently otherwise). *)

val dead_inline_grants :
  reporter -> file:string -> (int * string) list -> violation list
(** [GRANT] violations for the inline grants of [file] that absorbed
    nothing this run — left in place, one would silently cover the
    next occurrence of its rule on its lines.  R001 grants are the
    reachability pass's to judge. *)

(** {1 Output} *)

val print_text : violation list -> unit

val json_of_violations :
  files_scanned:int -> violation list -> string

val sarif_of_violations : violation list -> string
(** Minimal SARIF 2.1.0 — enough for GitHub code-scanning annotations
    (ruleId, message, file, startLine). *)

val summary_table : reporter -> string
(** Per-rule findings / inline suppressions / allowlist absorptions,
    one row per rule (meta rules only when they fired). *)

val write_file : string -> string -> unit
