(** [rcbr_lint]: the determinism analyzer (DESIGN.md §14), typed and
    interprocedural, over the [.cmt] trees.

    The analyzer loads every typed tree dune produced for [lib/],
    [bin/], [bench/] and [test/], resolves references through the
    repo's local-module-alias idiom ([module Pool = Rcbr_util.Pool]),
    builds a cross-module definition table, and runs four passes:

    - {b D001–D003, F001, F002, P001 — identifier rules}, at every
      occurrence.  D001–D003 report the determinism sources T001
      starts from, one recogniser for both: [Random.*] outside
      [Rcbr_util.Rng] (D001), bucket-order-dependent
      [Hashtbl.iter]/[fold] in result-producing code (D002), wall-clock
      reads outside [bench/] (D003).  F001 fires on [Stdlib]
      [=]/[<>]/[compare]/[min]/[max] whose instantiated operand type is
      [float] or a tuple or type application containing [float] —
      applied or passed as a value — unless an operand is a constant
      constructor ([[]], [None]); type abbreviations are not expanded
      (a [.cmt] keeps only environment summaries).
      F002 fires on a comparison against [nan], P001 on [Obj.magic].

    - {b T001/T002 — determinism taint.}  The D001–D003 sources plus
      [Domain.self] and [Hashtbl.hash] of a closure are propagated
      through let-bindings, control dependence and calls (a
      returns-taint fixpoint over the call graph) until they reach a
      sink — the FNV outcome hashes or Json emission — either as a
      direct argument or through a higher-order call.  Suppressing
      T001 at the {e source} line sanctions that source and kills all
      downstream reports from it.  The taint is value-level: flows
      through mutable cells (accumulating into a [ref]/array, then
      reading it back) are not tracked.

    - {b E001 — Pool escape.}  At each spawn site ([Pool.map],
      [Pool.map_array], [Pool.init], [Domain.spawn]) a literal task
      closure must not write state captured from outside it, and a
      partially-applied task function must not write shared state or
      any of its partially-applied (hence task-shared) arguments —
      established via per-definition writes-global / writes-param
      summaries computed to fixpoint.  Writing the task's own per-item
      argument is allowed.

    - {b U001/U002 — units of measure.}  A dimension lattice over
      seconds, slots, cells, bits, bytes and calls, seeded from
      [tools/lint/units.map].  Annotated values give identifiers,
      record fields and call results dimensions; arithmetic combines
      them ([*.], [/.]) or requires agreement ([+.], [-.],
      comparisons, [min]/[max] — U001); annotated argument slots and
      record fields reject mismatched dimensions (U002).  Coverage is
      opt-in: unannotated values are dimensionless-unknown and never
      flagged. *)

(** {1 Dimensions} *)

type dim = (string * int) list
(** Sorted (atom, exponent) pairs, no zero exponents; [[]] is
    dimensionless. *)

type dtype =
  | Unknown
  | Dim of dim
  | Fn of (string * dtype) list * dtype
      (** argument slots (["" ] positional, ["~l"] labelled, ["?l"]
          optional) and result *)

val dim_to_string : dim -> string

val parse_units : string -> (string * dtype) list
(** Parse units.map text ([name : dim [-> dim ...]] lines, [#]
    comments).  Unknown dimension tokens raise [Failure]. *)

(** {1 Configuration} *)

type config = {
  random_exempt : string -> bool;  (** file may use [Random] directly *)
  clock_exempt : string -> bool;  (** file may read the wall clock *)
  order_scope : string -> bool;  (** Hashtbl order is a source here *)
  sinks : string list;  (** canonical sink functions (T001) *)
  spawns : (string * int) list;
      (** spawn function, task-argument index among [Nolabel] args *)
  mutators : (string * int) list;
      (** extra mutators beyond the stdlib table: function, index of
          the mutated [Nolabel] argument *)
  units : (string * dtype) list;  (** units.map contents *)
  allow_grants : Lint_common.grant list;
}

val strict_config : config
(** Everything in scope, nothing exempt, no sinks, spawns or units —
    fixtures add exactly what they exercise. *)

val repo_config :
  ?units:(string * dtype) list ->
  ?allow_grants:Lint_common.grant list ->
  unit ->
  config
(** The repo policy: [Rng] may use [Random], [bench/] may read the
    clock, order matters in [lib/ bin/ bench/], sinks are the FNV
    outcome hashes and Json emission, spawn points are the [Pool] entry
    points and [Domain.spawn]. *)

(** {1 Entry points} *)

val check_sources :
  config:config ->
  (string * string * string) list ->
  Lint_common.violation list
(** [(modname, filename, source)] units are typed in memory against
    the stdlib environment plus [Unix] ([Compmisc]/[Typemod]) and analyzed
    together, so fixtures exercise the cross-definition machinery.
    Typing failures become PARSE violations; results are sorted. *)

type result = {
  violations : Lint_common.violation list;
  units_scanned : int;
  reporter : Lint_common.reporter;
      (** for the summary table and dead-grant check *)
}

val run_cmts :
  config:config -> roots:string list -> string list -> result
(** Analyze the given [.cmt] files together — those whose recorded
    source path lies under one of [roots]; unreadable files and
    duplicate module names are skipped — then report, as [PARSE], each
    [.ml] that {!Lint_common.discover} lists under [roots] but no
    loaded tree covers. *)
