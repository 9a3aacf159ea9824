(* Fixture tests for the rcbr_lint determinism analyzer (DESIGN.md §14).
   Every rule gets a must-fire, a must-not-fire and a suppressed case,
   plus coverage for rule scoping, the allowlist, the suppression
   grammar (mandatory reason, multi-line comments, comma-separated rule
   lists), typing failures and the coverage guard.  Fixtures live in
   quoted strings and are typed in memory against the stdlib
   environment plus [Unix] ([Tlint.check_sources]), so each one is a
   single self-contained compilation unit named [Fix]; cross-module flow
   is exercised through nested modules, which go through the same
   canonical-name resolution as real cross-unit refs. *)

module T = Rcbr_lint_core.Tlint
module C = Rcbr_lint_core.Lint_common

let hits ?(config = T.strict_config) ?(filename = "lib/fix.ml") src =
  List.map
    (fun v -> (v.C.line, v.C.rule))
    (T.check_sources ~config [ ("Fix", filename, src) ])

let pairs = Alcotest.(list (pair int string))

let check_hits ?config ?filename msg expected src =
  Alcotest.check pairs msg expected (hits ?config ?filename src)

let grant file rule =
  { C.g_file = file; g_rule = rule; g_reason = "fixture"; g_line = 1 }

(* --- rule inventory --------------------------------------------------- *)

let test_rule_inventory () =
  Alcotest.(check (list string))
    "every rule, in report order"
    [
      "D001"; "D002"; "D003"; "F001"; "F002"; "P001"; "T001"; "T002"; "E001";
      "U001"; "U002";
    ]
    (List.map fst C.rules)

let test_typed_rule_inventory () =
  (* one vocabulary validates suppressions and grants: the rules plus
     the meta ids, and no retired id *)
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " accepted") true (List.mem r C.all_rule_ids))
    [ "D001"; "T001"; "U002"; "PARSE"; "SUPP"; "GRANT" ];
  Alcotest.(check bool)
    "R001 is retired" false
    (List.mem "R001" C.all_rule_ids)

(* --- D001: randomness outside the sanctioned module ------------------ *)

let test_d001_fires () =
  check_hits "Random.int" [ (1, "D001") ] {|let f () = Random.int 10|};
  check_hits "a use through open Random" [ (2, "D001") ]
    {|open Random
let f () = int 10|}

let test_d001_clean () =
  check_hits "lowercase near-miss" [] {|let random_pick = 3|}

let test_d001_exempt_file () =
  let config =
    { T.strict_config with T.random_exempt = (fun f -> f = "lib/util/rng.ml") }
  in
  check_hits ~config ~filename:"lib/util/rng.ml" "rng.ml exempt" []
    {|let f () = Random.int 10|};
  check_hits ~config ~filename:"lib/core/optimal.ml" "others still fire"
    [ (1, "D001") ]
    {|let f () = Random.int 10|}

let test_d001_suppressed () =
  check_hits "inline allow" []
    {|(* lint: allow D001 -- fixture: exercising the suppression path *)
let f () = Random.int 10|}

(* --- D002: order-dependent Hashtbl traversal ------------------------- *)

let fold_fixture = {|let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []|}

let test_d002_fires () =
  check_hits "Hashtbl.fold" [ (1, "D002") ] fold_fixture;
  check_hits "Hashtbl.iter" [ (1, "D002") ]
    {|let dump h = Hashtbl.iter (fun k v -> print_int (k + v)) h|}

let test_d002_clean () =
  check_hits "point lookups are fine" [] {|let get h k = Hashtbl.find_opt h k|}

let test_d002_out_of_scope () =
  let config =
    { T.strict_config with T.order_scope = (C.has_prefix ~prefix:"lib/") }
  in
  check_hits ~config ~filename:"test/fixture.ml" "not result-producing" []
    fold_fixture;
  check_hits ~config ~filename:"lib/fixture.ml" "result path still fires"
    [ (1, "D002") ] fold_fixture

let test_d002_suppressed () =
  check_hits "allow with reason" []
    ({|(* lint: allow D002 -- fixture: order-independent traversal *)
|}
    ^ fold_fixture)

let test_suppression_needs_reason () =
  (* A reason-less [allow] grants nothing: the violation survives. *)
  check_hits "no reason, no grant" [ (2, "D002") ]
    ({|(* lint: allow D002 *)
|}
    ^ fold_fixture)

let test_suppression_wrong_rule () =
  check_hits "allow of another rule does not leak" [ (2, "D002") ]
    ({|(* lint: allow D001 -- fixture: wrong rule id *)
|}
    ^ fold_fixture)

let test_suppression_multiline () =
  (* The suppression anchors to the line holding the closing comment. *)
  check_hits "reason spanning lines" []
    ({|(* lint: allow D002 --
   the reason may continue onto the closing line *)
|}
    ^ fold_fixture)

let test_suppression_rule_list () =
  (* Comma-separated rules cover distinct violations on the same line. *)
  check_hits "comma-separated ids" []
    {|(* lint: allow F001, F002 -- fixture: both on one line *)
let bad x = x = nan || x = 0.5|}

(* --- D003: wall-clock reads ------------------------------------------ *)

let test_d003_fires () =
  check_hits "Unix.gettimeofday" [ (1, "D003") ]
    {|let now () = Unix.gettimeofday ()|};
  check_hits "Sys.time" [ (1, "D003") ] {|let cpu () = Sys.time ()|};
  check_hits "calendar reads" [ (1, "D003"); (1, "D003"); (2, "D003") ]
    {|let utc () = Unix.gmtime (Unix.time ())
let local t = Unix.localtime t|}

let test_d003_clean () =
  check_hits "Sys.argv is not a clock" [] {|let args () = Sys.argv|}

let test_d003_bench_exempt () =
  let config =
    { T.strict_config with T.clock_exempt = (C.has_prefix ~prefix:"bench/") }
  in
  check_hits ~config ~filename:"bench/fixture.ml" "bench may read the clock"
    [] {|let now () = Unix.gettimeofday ()|};
  check_hits ~config ~filename:"lib/fixture.ml" "lib may not" [ (1, "D003") ]
    {|let now () = Unix.gettimeofday ()|}

let test_d003_suppressed () =
  check_hits "allow with reason" []
    {|(* lint: allow D003 -- fixture: time injected for a seed check *)
let now () = Unix.gettimeofday ()|}

(* --- F001: polymorphic comparison instantiated at a float type ------- *)

let test_f001_fires () =
  check_hits "poly = on float literal" [ (1, "F001") ]
    {|let close a = a = 0.5|};
  check_hits "poly compare on float arithmetic" [ (1, "F001") ]
    {|let c a b = compare (a +. 1.0) b|};
  check_hits "bare max folded over floats" [ (1, "F001") ]
    {|let peak xs = List.fold_left max 0.0 xs|};
  (* no float spelled anywhere near the operator: only the type says so *)
  check_hits "annotated float operands" [ (1, "F001") ]
    {|let eq (a : float) b = a = b|};
  check_hits "float inside a tuple" [ (1, "F001") ]
    {|let sort (xs : (int * float) list) = List.sort compare xs|}

let test_f001_clean () =
  check_hits "Float.equal" [] {|let close a = Float.equal a 0.5|};
  check_hits "Float.max folded" []
    {|let peak xs = List.fold_left Float.max 0.0 xs|};
  check_hits "polymorphic operands" [] {|let eq a b = a = b|};
  check_hits "int operands" [] {|let m (a : int) b = max a b|};
  check_hits "constant constructors decide a shape" []
    {|let empty (xs : float list) = xs = []
let unset (o : float option) = o <> None|}

let test_f001_suppressed () =
  check_hits "allow with reason" []
    {|(* lint: allow F001 -- fixture: operands proven integral upstream *)
let close a = a = 0.5|}

(* --- F002: comparisons against nan ----------------------------------- *)

let test_f002_fires () =
  (* F002 wins over F001 for the same application: one report, not two. *)
  check_hits "= nan" [ (1, "F002") ] {|let bad x = x = nan|};
  check_hits "< nan" [ (1, "F002") ] {|let worse x = x < nan|};
  check_hits "Float.nan" [ (1, "F002") ] {|let also x = x <> Float.nan|}

let test_f002_clean () =
  check_hits "Float.is_nan" [] {|let good x = Float.is_nan x|}

let test_f002_suppressed () =
  check_hits "allow with reason" []
    {|(* lint: allow F002 -- fixture: documenting the always-false branch *)
let bad x = x = nan|}

(* --- P001: Obj.magic -------------------------------------------------- *)

let test_p001_fires () =
  check_hits "Obj.magic" [ (1, "P001") ] {|let coerce x = Obj.magic x|}

let test_p001_clean () =
  check_hits "Obj.repr is not Obj.magic" [] {|let tag x = Obj.repr x|}

let test_p001_suppressed () =
  check_hits "allow with reason" []
    {|(* lint: allow P001 -- fixture: suppression still demands a reason *)
let coerce x = Obj.magic x|}

(* --- allowlist, parse failures, coverage ------------------------------ *)

let test_allowlist_grants () =
  let config =
    { T.strict_config with T.allow_grants = [ grant "lib/fixture.ml" "D002" ] }
  in
  check_hits ~config ~filename:"lib/fixture.ml" "granted file is clean" []
    fold_fixture;
  check_hits ~config ~filename:"lib/other.ml" "grant is per-file"
    [ (1, "D002") ] fold_fixture

(* The daemon pump reads wall time under an explicit whole-file grant,
   like the one tools/lint/allowlist ships for bin/rcbr_switchd.ml:
   D003 goes quiet for exactly that file, and only D003. *)
let test_allowlist_grants_switchd_d003 () =
  let config =
    {
      T.strict_config with
      T.allow_grants = [ grant "bin/rcbr_switchd.ml" "D003" ];
    }
  in
  let clock_fixture = {|let now () = Unix.gettimeofday ()|} in
  check_hits ~config ~filename:"bin/rcbr_switchd.ml" "granted daemon is clean"
    [] clock_fixture;
  check_hits ~config ~filename:"bin/rcbr_other.ml" "grant is per-file"
    [ (1, "D003") ] clock_fixture;
  check_hits ~config ~filename:"bin/rcbr_switchd.ml"
    "grant covers only D003" [ (1, "D001") ]
    {|let draw () = Random.float 1.0|}

let test_parse_failure_reported () =
  match hits {|let = |} with
  | [ (_, "PARSE") ] -> ()
  | other ->
      Alcotest.failf "expected a single PARSE violation, got %d: %s"
        (List.length other)
        (String.concat ", " (List.map snd other))

(* A source the build never typed is code the analyzer cannot see: the
   coverage guard reports it rather than letting it vanish. *)
let test_source_without_typed_tree () =
  let root = Filename.temp_file "rcbr_cover" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let src = Filename.concat root "orphan.ml" in
  C.write_file src "let x = 1\n";
  Fun.protect ~finally:(fun () ->
      Sys.remove src;
      Sys.rmdir root)
  @@ fun () ->
  let r = T.run_cmts ~config:T.strict_config ~roots:[ root ] [] in
  Alcotest.check pairs "exactly the coverage violation" [ (1, "PARSE") ]
    (List.map (fun v -> (v.C.line, v.C.rule)) r.T.violations);
  Alcotest.(check (list string)) "on the unseen file" [ C.normalize src ]
    (List.map (fun v -> v.C.file) r.T.violations)

(* --- T001: determinism taint ------------------------------------------ *)

(* A fixture-local FNV mixer stands in for the repo's outcome hashes.
   The same recogniser drives D001-D003 and T001's sources, so a source
   that reaches the sink reports twice: the occurrence, then the flow. *)
let sink_cfg = { T.strict_config with T.sinks = [ "Fix.fnv" ] }

let test_t001_fires () =
  (* the seeded mutant: a wall-clock read folded into the hash *)
  check_hits ~config:sink_cfg "Sys.time reaches the sink"
    [ (2, "D003"); (2, "T001") ]
    {|let fnv h x = (h * 16777619) lxor x
let bad () = fnv 0 (int_of_float (Sys.time ()))|}

let test_t001_clean () =
  check_hits ~config:sink_cfg "constant data is fine" []
    {|let fnv h x = (h * 16777619) lxor x
let ok () = fnv 0 42|}

let test_t001_interprocedural () =
  (* the source sits in another definition inside a nested module: the
     returns-taint fixpoint must carry it to the sink call site *)
  check_hits ~config:sink_cfg "taint crosses definitions and modules"
    [ (2, "D003"); (3, "T001") ]
    {|let fnv h x = (h * 16777619) lxor x
module Clock = struct let now () = Sys.time () end
let digest () = fnv 0 (int_of_float (Clock.now ()))|};
  check_hits ~config:sink_cfg "and survives a two-hop chain"
    [ (2, "D003"); (4, "T001") ]
    {|let fnv h x = (h * 16777619) lxor x
let jitter () = Sys.time ()
let scaled () = jitter () *. 2.0
let out () = fnv 0 (int_of_float (scaled ()))|}

let test_t001_hof_sink () =
  (* the megacall idiom: the sink is not applied, it is folded *)
  check_hits ~config:sink_cfg "sink fed through List.fold_left"
    [ (2, "D003"); (2, "T001") ]
    {|let fnv h x = (h * 16777619) lxor x
let mix () = List.fold_left fnv 0 [ int_of_float (Sys.time ()) ]|}

let test_t001_order_source () =
  let fixture =
    {|let fnv h x = (h * 16777619) lxor x
let digest h = fnv 0 (Hashtbl.fold (fun k _ a -> a + k) h 0)|}
  in
  check_hits ~config:sink_cfg "bucket order feeds the sink"
    [ (2, "D002"); (2, "T001") ]
    fixture;
  let config = { sink_cfg with T.order_scope = (fun _ -> false) } in
  check_hits ~config "out of order scope, no source" [] fixture;
  (* the Rcbr_util.Tables idiom: one waiver at the fold sanctions both
     the occurrence and everything downstream of it *)
  check_hits ~config:sink_cfg "a waived fold inside a sorting wrapper" []
    {|let fnv h x = (h * 16777619) lxor x
module Sorted = struct
  let total h =
    (* lint: allow D002, T001 -- fixture: sum is order-independent *)
    Hashtbl.fold (fun k _ a -> a + k) h 0
end
let digest h = fnv 0 (Sorted.total h)|}

let test_t001_random_exempt () =
  let fixture =
    {|let fnv h x = (h * 16777619) lxor x
let draw () = fnv 0 (Random.int 10)|}
  in
  check_hits ~config:sink_cfg "Random taints by default"
    [ (2, "D001"); (2, "T001") ]
    fixture;
  let config =
    { sink_cfg with T.random_exempt = (fun f -> f = "lib/fix.ml") }
  in
  check_hits ~config "the sanctioned module may use Random" [] fixture

let test_t001_source_suppression () =
  (* suppressing at the source line sanctions the source itself, so
     nothing downstream reports — the documented T001 semantics *)
  check_hits ~config:sink_cfg "source-line waiver kills downstream" []
    {|let fnv h x = (h * 16777619) lxor x
(* lint: allow D003, T001 -- fixture: sanctioned clock read *)
let t () = Sys.time ()
let out () = fnv 0 (int_of_float (t ()))|}

let test_t001_allow_grant () =
  let config =
    {
      sink_cfg with
      T.allow_grants = [ grant "lib/fix.ml" "D003"; grant "lib/fix.ml" "T001" ];
    }
  in
  check_hits ~config "allowlist grants absorb the reports" []
    {|let fnv h x = (h * 16777619) lxor x
let bad () = fnv 0 (int_of_float (Sys.time ()))|}

(* --- T002: address-based hash of a closure ---------------------------- *)

let test_t002_fires () =
  check_hits "Hashtbl.hash of a closure" [ (1, "T002") ]
    {|let h = Hashtbl.hash (fun x -> x + 1)|}

let test_t002_clean () =
  check_hits "hashing plain data is fine" []
    {|let h = Hashtbl.hash (42, "x")|}

let test_t002_suppressed () =
  check_hits "allow with reason" []
    {|(* lint: allow T002 -- fixture: tag only feeds a debug label *)
let h = Hashtbl.hash (fun x -> x + 1)|}

(* --- E001: Pool escape ------------------------------------------------ *)

(* A stub pool: the analysis keys on the configured spawn names, not on
   the implementation, so [List.map]/[Array.map] stand in for the real
   thing. *)
let pool_stub =
  {|module Pool = struct
  let map f xs = List.map f xs
  let map_array f xs = Array.map f xs
  let init n f = Array.init n f
end|}

let spawn_cfg =
  {
    T.strict_config with
    T.spawns =
      [ ("Fix.Pool.map", 0); ("Fix.Pool.map_array", 0); ("Fix.Pool.init", 1) ];
  }

let test_e001_closure_fires () =
  (* the seeded mutant: a shared ref captured by the task *)
  check_hits ~config:spawn_cfg "task closure writes a captured ref"
    [ (7, "E001") ]
    (pool_stub
    ^ {|
let total = ref 0
let run xs = Pool.map_array (fun x -> total := !total + x; x) xs|})

(* Module-level mutable state of each kind, written from a Pool.map
   task: a ref, a hash table, a record with a mutable field. *)
let test_e001_module_state () =
  check_hits ~config:spawn_cfg "top-level ref" [ (7, "E001") ]
    (pool_stub
    ^ {|
let counter = ref 0
let run xs = Pool.map (fun x -> incr counter; x) xs|});
  check_hits ~config:spawn_cfg "top-level Hashtbl.create" [ (7, "E001") ]
    (pool_stub
    ^ {|
let cache = Hashtbl.create 16
let run xs = Pool.map (fun x -> Hashtbl.replace cache x (); x) xs|});
  check_hits ~config:spawn_cfg "record with a mutable field" [ (8, "E001") ]
    (pool_stub
    ^ {|
type t = { mutable hits : int }
let stats = { hits = 0 }
let run xs = Pool.map (fun x -> stats.hits <- stats.hits + x; x) xs|})

let test_e001_local_state_clean () =
  check_hits ~config:spawn_cfg "task-local state is fine" []
    (pool_stub
    ^ {|
let run xs = Pool.map_array (fun x -> let r = ref 0 in r := x; !r) xs|})

let test_e001_partial_application () =
  (* a partially-applied argument is shared across tasks: writing it is
     an escape, writing the per-item argument is not *)
  check_hits ~config:spawn_cfg "writing a partially-applied arg escapes"
    [ (7, "E001") ]
    (pool_stub
    ^ {|
let bump acc x = acc := !acc + x; x
let run xs = let acc = ref 0 in Pool.map_array (bump acc) xs|});
  check_hits ~config:spawn_cfg "writing the per-item arg is allowed" []
    (pool_stub
    ^ {|
let reset (r : int ref) = r := 0
let run rs = Pool.map_array reset rs|})

let test_e001_transitive () =
  (* the write hides one call deep: the writes-global summary carries it *)
  check_hits ~config:spawn_cfg "task function writes a global via summary"
    [ (8, "E001") ]
    (pool_stub
    ^ {|
let hits = ref 0
let note x = hits := !hits + x; x
let run xs = Pool.map_array note xs|})

let test_e001_domain_spawn () =
  let config = { T.strict_config with T.spawns = [ ("Domain.spawn", 0) ] } in
  check_hits ~config "Domain.spawn closure writing captured state"
    [ (2, "E001") ]
    {|let flag = ref false
let go () = Domain.spawn (fun () -> flag := true)|}

let test_e001_suppressed () =
  check_hits ~config:spawn_cfg "allow with reason" []
    (pool_stub
    ^ {|
let total = ref 0
(* lint: allow E001 -- fixture: the write is mutex-guarded elsewhere *)
let run xs = Pool.map_array (fun x -> total := !total + x; x) xs|})

(* --- R001, retired for E001 --------------------------------------------- *)

(* R001 flagged module-level mutable state in Pool-reachable code by
   shape alone.  E001 decides the same shapes by what a task writes;
   these pin that R001's clean, out-of-zone and waived cases keep their
   verdicts.  Its must-fire shapes are [test_e001_module_state]. *)

let test_r001_clean () =
  check_hits ~config:spawn_cfg "a fresh ref per call is fine" []
    (pool_stub
    ^ {|
let fresh () = ref 0
let run xs = Pool.map (fun x -> let r = fresh () in r := x; !r) xs|});
  (* the lib/fault/injector.ml shape R001 misread as mutable *)
  check_hits ~config:spawn_cfg "reading an immutable record is fine" []
    (pool_stub
    ^ {|
type totals = { sent : int }
let no_totals = { sent = 0 }
let run xs = Pool.map (fun x -> x + no_totals.sent) xs|})

let test_r001_out_of_zone () =
  check_hits ~config:spawn_cfg "module-level state with no task is fine" []
    {|let counter = ref 0
let bump () = incr counter|};
  check_hits ~config:spawn_cfg "state no task writes is fine" []
    (pool_stub
    ^ {|
let counter = ref 0
let bump () = incr counter
let run xs = bump (); Pool.map (fun x -> x + !counter) xs|})

let test_r001_suppressed () =
  (* the Optimal.needed_rate_cache shape: a task reaches the memo write
     one call deep, and the waiver sits at the spawn site *)
  check_hits ~config:spawn_cfg "E001 waiver at the spawn site" []
    (pool_stub
    ^ {|
let cache = ref []
let memo x = cache := x :: !cache; x
(* lint: allow E001 -- fixture: mutex-guarded, idempotent cache *)
let run xs = Pool.map memo xs|});
  (* the id is spliced so this file's own lint scan never sees it *)
  check_hits ~config:spawn_cfg "an R001 waiver is an unknown id"
    [ (1, "SUPP") ]
    ("(* lint: allow R" ^ "001 -- fixture: mutex-guarded, idempotent cache *)\n"
   ^ "let counter = ref 0")

(* --- U001/U002: units of measure -------------------------------------- *)

let units_cfg =
  {
    T.strict_config with
    T.units =
      T.parse_units
        "Fix.dur : _ -> second\n\
         Fix.len : _ -> slot\n\
         Fix.bw : _ -> bps\n\
         Fix.at : second -> _\n\
         Fix.shift : ~by:slot -> _ -> _\n\
         Fix.t.cap : bps\n";
  }

(* Dimension carriers; bodies are irrelevant, units.map is the truth. *)
let units_defs =
  {|let dur x = float_of_int x
let len x = float_of_int x
let bw x = float_of_int x
let at (t : float) = t
let shift ~by x = x +. by
type t = { mutable cap : float }|}

let test_u001_fires () =
  (* the seeded mutant: seconds + slots without a conversion *)
  check_hits ~config:units_cfg "seconds + slots" [ (7, "U001") ]
    (units_defs ^ {|
let bad x = dur x +. len x|});
  check_hits ~config:units_cfg "comparison across dimensions"
    [ (7, "U001") ]
    (units_defs ^ {|
let c x = dur x < len x|});
  check_hits ~config:units_cfg "min across dimensions" [ (7, "U001") ]
    (units_defs ^ {|
let m x = Float.min (dur x) (len x)|})

let test_u001_clean () =
  check_hits ~config:units_cfg "same dimension adds fine" []
    (units_defs ^ {|
let ok x = dur x +. dur x|});
  check_hits ~config:units_cfg "multiply and divide combine dimensions" []
    (units_defs ^ {|
let bits x = bw x *. dur x
let rate x = dur x /. len x|})

let test_u002_fires () =
  check_hits ~config:units_cfg "positional slot rejects slots for seconds"
    [ (7, "U002") ]
    (units_defs ^ {|
let b x = at (len x)|});
  check_hits ~config:units_cfg "labelled slot rejects seconds for slots"
    [ (7, "U002") ]
    (units_defs ^ {|
let s x = shift ~by:(dur x) (bw x)|});
  check_hits ~config:units_cfg "record field rejects the wrong dimension"
    [ (7, "U002") ]
    (units_defs ^ {|
let mk x = { cap = len x }|});
  check_hits ~config:units_cfg "field assignment rejects it too"
    [ (7, "U002") ]
    (units_defs ^ {|
let set r x = r.cap <- len x|})

let test_u002_clean () =
  check_hits ~config:units_cfg "matching dimensions pass" []
    (units_defs
    ^ {|
let g x = at (dur x)
let s x = shift ~by:(len x) (bw x)
let mk x = { cap = bw x }|})

let test_u002_suppressed () =
  check_hits ~config:units_cfg "allow with reason" []
    (units_defs
    ^ {|
(* lint: allow U002 -- fixture: the slot count doubles as raw seconds here *)
let b x = at (len x)|})

(* --- typed plumbing --------------------------------------------------- *)

let test_typed_comma_list () =
  let config = { units_cfg with T.sinks = [ "Fix.fnv" ] } in
  let body =
    {|let fnv h x = (h * 16777619) lxor x
let dur x = float_of_int x
let len x = float_of_int x|}
  in
  check_hits ~config "three rules fire on one line"
    [ (4, "D003"); (4, "T001"); (4, "U001") ]
    (body
    ^ {|
let both t = fnv 0 (int_of_float (Sys.time () +. dur t +. len t))|});
  check_hits ~config "one comma-separated comment silences all three" []
    (body
    ^ {|
(* lint: allow D003, T001, U001 -- fixture: one comment, three rules *)
let both t = fnv 0 (int_of_float (Sys.time () +. dur t +. len t))|})

let test_typed_unknown_rule () =
  (* the id is spliced so this file's own lint scan never sees it *)
  check_hits "unknown rule id is an error, not a no-op"
    [ (1, "SUPP") ]
    ("(* lint: allow T" ^ "999 -- fixture: nobody owns this id *)\n"
   ^ "let x = 1")

let test_typed_type_failure () =
  (* full typing errors, not just parse errors, come back as PARSE *)
  match hits {|let x : int = 1.0|} with
  | [ (_, "PARSE") ] -> ()
  | other ->
      Alcotest.failf "expected one PARSE for a type error, got %d"
        (List.length other)

(* --- allowlist hygiene ------------------------------------------------ *)

let with_temp_allowlist contents f =
  let tmp = Filename.temp_file "rcbr_allow" ".txt" in
  C.write_file tmp contents;
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> f tmp)

let test_allowlist_loader () =
  with_temp_allowlist "# comment\n\nlib/a.ml D002 seed-exact bucket order\n"
    (fun tmp ->
      match C.load_allowlist tmp with
      | [ g ] ->
          Alcotest.(check string) "file" "lib/a.ml" g.C.g_file;
          Alcotest.(check string) "rule" "D002" g.C.g_rule;
          Alcotest.(check string) "reason" "seed-exact bucket order"
            g.C.g_reason;
          Alcotest.(check int) "line" 3 g.C.g_line
      | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs))

let test_allowlist_needs_reason () =
  with_temp_allowlist "lib/a.ml D002\n" (fun tmp ->
      match C.load_allowlist tmp with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "a reason-less grant must be rejected")

let test_allowlist_unknown_rule () =
  with_temp_allowlist "lib/a.ml Q999 a rule nobody owns\n" (fun tmp ->
      match C.load_allowlist tmp with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "an unknown rule id must be rejected")

let test_dead_grants () =
  let r = C.make_reporter () in
  r.C.grant_suppressed <- [ ("lib/a.ml", "T001") ];
  let g file rule line =
    { C.g_file = file; g_rule = rule; g_reason = "fixture"; g_line = line }
  in
  let grants =
    [
      g "lib/a.ml" "T001" 3;  (* absorbed something: alive *)
      g "lib/b.ml" "E001" 4;  (* absorbed nothing: dead *)
    ]
  in
  match C.dead_grants ~allowlist_file:"allow" r grants with
  | [ v ] ->
      Alcotest.(check string) "dead grant reports as GRANT" "GRANT" v.C.rule;
      Alcotest.(check int) "at its own allowlist line" 4 v.C.line
  | other ->
      Alcotest.failf "expected exactly one dead grant, got %d"
        (List.length other)

let () =
  let t name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "lint"
    [
      ("inventory", [ t "rule inventory" test_rule_inventory ]);
      ( "d001",
        [
          t "fires" test_d001_fires;
          t "clean" test_d001_clean;
          t "exempt file" test_d001_exempt_file;
          t "suppressed" test_d001_suppressed;
        ] );
      ( "d002",
        [
          t "fires" test_d002_fires;
          t "clean" test_d002_clean;
          t "out of scope" test_d002_out_of_scope;
          t "suppressed" test_d002_suppressed;
        ] );
      ( "suppression grammar",
        [
          t "needs a reason" test_suppression_needs_reason;
          t "wrong rule id" test_suppression_wrong_rule;
          t "multi-line comment" test_suppression_multiline;
          t "comma-separated rules" test_suppression_rule_list;
        ] );
      ( "d003",
        [
          t "fires" test_d003_fires;
          t "clean" test_d003_clean;
          t "bench exempt" test_d003_bench_exempt;
          t "suppressed" test_d003_suppressed;
        ] );
      ( "f001",
        [
          t "fires" test_f001_fires;
          t "clean" test_f001_clean;
          t "suppressed" test_f001_suppressed;
        ] );
      ( "f002",
        [
          t "fires" test_f002_fires;
          t "clean" test_f002_clean;
          t "suppressed" test_f002_suppressed;
        ] );
      ( "p001",
        [
          t "fires" test_p001_fires;
          t "clean" test_p001_clean;
          t "suppressed" test_p001_suppressed;
        ] );
      ( "plumbing",
        [
          t "allowlist grants" test_allowlist_grants;
          t "allowlist grants switchd D003" test_allowlist_grants_switchd_d003;
          t "parse failure reported" test_parse_failure_reported;
          t "source without typed tree" test_source_without_typed_tree;
        ] );
      ( "typed inventory",
        [ t "typed rule inventory" test_typed_rule_inventory ] );
      ( "t001",
        [
          t "fires" test_t001_fires;
          t "clean" test_t001_clean;
          t "interprocedural" test_t001_interprocedural;
          t "higher-order sink" test_t001_hof_sink;
          t "bucket-order source" test_t001_order_source;
          t "random exemption" test_t001_random_exempt;
          t "source-line suppression" test_t001_source_suppression;
          t "allowlist grant" test_t001_allow_grant;
        ] );
      ( "t002",
        [
          t "fires" test_t002_fires;
          t "clean" test_t002_clean;
          t "suppressed" test_t002_suppressed;
        ] );
      ( "e001",
        [
          t "closure fires" test_e001_closure_fires;
          t "module-level state" test_e001_module_state;
          t "local state clean" test_e001_local_state_clean;
          t "partial application" test_e001_partial_application;
          t "transitive write" test_e001_transitive;
          t "Domain.spawn" test_e001_domain_spawn;
          t "suppressed" test_e001_suppressed;
        ] );
      ( "r001",
        [
          t "clean" test_r001_clean;
          t "out of zone" test_r001_out_of_zone;
          t "suppressed" test_r001_suppressed;
        ] );
      ( "u001",
        [ t "fires" test_u001_fires; t "clean" test_u001_clean ] );
      ( "u002",
        [
          t "fires" test_u002_fires;
          t "clean" test_u002_clean;
          t "suppressed" test_u002_suppressed;
        ] );
      ( "typed plumbing",
        [
          t "comma-separated rules" test_typed_comma_list;
          t "unknown rule id" test_typed_unknown_rule;
          t "typing failures" test_typed_type_failure;
        ] );
      ( "allowlist hygiene",
        [
          t "loader" test_allowlist_loader;
          t "needs a reason" test_allowlist_needs_reason;
          t "unknown rule id" test_allowlist_unknown_rule;
          t "dead grants" test_dead_grants;
        ] );
    ]
