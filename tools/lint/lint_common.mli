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
    measure). *)

val meta_rules : (string * string) list
(** PARSE / SUPP / GRANT — harness diagnostics, not suppressible. *)

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
          suppression is an error, never a silent no-op *)
}

val scan_suppressions : file:string -> string -> suppressions
(** Scan one source for [(* lint: allow RULE[, RULE...] — reason *)]
    comments.  The reason is mandatory; multi-line comments anchor the
    grant to the line holding the closing ["*)"]. *)

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
  mutable inline_suppressed : (string * string) list;  (** (file, rule) *)
  mutable grant_suppressed : (string * string) list;  (** (file, rule) *)
}

val make_reporter : unit -> reporter

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
