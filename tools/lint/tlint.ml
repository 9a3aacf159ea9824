(* The determinism analyzer (DESIGN.md §14): typed, interprocedural,
   over the .cmt trees dune writes for every source.

   It builds a cross-module definition table and call graph and runs
   five passes:

   - identifier rules at every occurrence: D001-D003 at each
     determinism source (Random outside Rng, wall-clock reads,
     Hashtbl bucket order), F001 at a polymorphic comparison
     instantiated at a float-bearing type, F002 at a comparison against
     nan, P001 at Obj.magic;
   - determinism taint (T001/T002): the same sources plus Domain.self
     and Hashtbl.hash of closures, propagated through let-bindings,
     control flow and calls until they reach a sink (FNV outcome
     hashes, Json emission);
   - Pool escape analysis (E001): mutable state written from inside a
     Pool/Domain task, through literal closures or partially-applied
     functions, using per-definition writes-global / writes-param
     summaries;
   - units of measure (U001/U002): a dimension lattice over slots,
     seconds, cells, bits and calls, seeded from tools/lint/units.map,
     checking arithmetic, comparisons, record fields and annotated
     calls;
   - reachability (R001): the library definitions that no executable,
     bench program or example reaches, walking the definition table
     from those roots.

   All reporting goes through Lint_common, so one suppression grammar
   and one allowlist cover every rule. *)

module C = Lint_common
open Typedtree

(* ------------------------------------------------------------------ *)
(* Dimension algebra                                                   *)
(* ------------------------------------------------------------------ *)

(* A dimension is a sorted (atom, exponent) list with no zero
   exponents; [] is dimensionless. *)
type dim = (string * int) list

type dtype =
  | Unknown
  | Dim of dim
  | Fn of (string * dtype) list * dtype
      (* arg slots ("" positional, "~l" labelled, "?l" optional) *)

let dim_mul (a : dim) (b : dim) : dim =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, e) -> Hashtbl.replace tbl k e) a;
  List.iter
    (fun (k, e) ->
      let cur = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (cur + e))
    b;
  Hashtbl.fold (fun k e acc -> if e = 0 then acc else (k, e) :: acc) tbl []
  |> List.sort compare

let dim_inv (a : dim) : dim = List.map (fun (k, e) -> (k, -e)) a

let dim_to_string (d : dim) =
  if d = [] then "dimensionless"
  else
    let part (k, e) =
      if e = 1 || e = -1 then k else Printf.sprintf "%s^%d" k (abs e)
    in
    let pos = List.filter (fun (_, e) -> e > 0) d in
    let neg = List.filter (fun (_, e) -> e < 0) d in
    let num = if pos = [] then "1" else String.concat "*" (List.map part pos) in
    if neg = [] then num
    else num ^ "/" ^ String.concat "/" (List.map part neg)

(* Atom spellings accepted in units.map. *)
let atom_alias = function
  | "second" | "seconds" | "sec" | "s" -> Some "second"
  | "slot" | "slots" | "frame" | "frames" -> Some "slot"
  | "cell" | "cells" -> Some "cell"
  | "bit" | "bits" -> Some "bit"
  | "byte" | "bytes" -> Some "byte"
  | "call" | "calls" | "erlang" | "erlangs" -> Some "call"
  | _ -> None

(* Whole-dimension shorthands. *)
let full_alias = function
  | "Mbps" | "bps" -> Some [ ("bit", 1); ("second", -1) ]
  | "fps" -> Some [ ("second", -1); ("slot", 1) ]
  | "Hz" -> Some [ ("second", -1) ]
  | "one" | "dimensionless" | "scalar" | "ratio" -> Some []
  | _ -> None

let parse_dim ~where (s : string) : dim =
  let fail tok =
    failwith
      (Printf.sprintf "units.map:%s: unknown dimension token %S" where tok)
  in
  (* split into (sign, token) on '*' and '/' *)
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let sign = ref 1 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := (!sign, Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '*' -> flush (); sign := 1
      | '/' -> flush (); sign := -1
      | ' ' | '\t' -> ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.fold_left
    (fun acc (sg, tok) ->
      (* optional ^k exponent *)
      let tok, exp =
        match String.index_opt tok '^' with
        | None -> (tok, 1)
        | Some i -> (
            let base = String.sub tok 0 i in
            let e = String.sub tok (i + 1) (String.length tok - i - 1) in
            match int_of_string_opt e with
            | Some e -> (base, e)
            | None -> fail tok)
      in
      let d =
        match full_alias tok with
        | Some d -> d
        | None -> (
            match atom_alias tok with
            | Some a -> [ (a, 1) ]
            | None -> fail tok)
      in
      let d = List.map (fun (k, e) -> (k, e * exp * sg)) d in
      dim_mul acc d)
    [] (List.rev !parts)

let parse_dtype_slot ~where (s : string) : string * dtype =
  let s = String.trim s in
  let label, body =
    if s <> "" && (s.[0] = '~' || s.[0] = '?') then
      match String.index_opt s ':' with
      | Some i ->
          ( String.sub s 0 i,
            String.sub s (i + 1) (String.length s - i - 1) )
      | None -> ("", s)
    else ("", s)
  in
  let d =
    match String.trim body with
    | "_" | "unit" -> Unknown
    | body -> Dim (parse_dim ~where body)
  in
  (label, d)

(* Split a signature string on top-level "->". *)
let split_arrows (s : string) : string list =
  let out = ref [] in
  let start = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '-' && s.[!i + 1] = '>' then begin
      out := String.sub s !start (!i - !start) :: !out;
      start := !i + 2;
      i := !i + 2
    end
    else incr i
  done;
  out := String.sub s !start (n - !start) :: !out;
  List.rev !out

(* units.map: one entry per line, [#] comments, blank lines skipped.

     Qualified.name : dim
     Qualified.fn : ~label:dim -> _ -> dim

   Record fields are spelled [Type.path.field : dim]. *)
let parse_units (text : string) : (string * dtype) list =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun idx line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line = "" then []
         else
           let where = string_of_int (idx + 1) in
           match String.index_opt line ':' with
           | None ->
               failwith
                 (Printf.sprintf "units.map:%s: missing ':' in %S" where line)
           | Some i ->
               let name = String.trim (String.sub line 0 i) in
               let sg =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               let slots =
                 List.map (parse_dtype_slot ~where) (split_arrows sg)
               in
               let dt =
                 match slots with
                 | [] -> Unknown
                 | [ (_, d) ] -> d
                 | slots ->
                     let rec split acc = function
                       | [ (_, ret) ] -> (List.rev acc, ret)
                       | x :: rest -> split (x :: acc) rest
                       | [] -> assert false
                     in
                     let args, ret = split [] slots in
                     Fn (args, ret)
               in
               [ (name, dt) ])
       lines)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  random_exempt : string -> bool;  (* file may use Random directly *)
  clock_exempt : string -> bool;  (* file may read the wall clock *)
  order_scope : string -> bool;  (* Hashtbl order is a source here *)
  reach_scope : string -> bool;  (* R001 reports unreached definitions here *)
  sinks : string list;  (* canonical sink functions (T001) *)
  spawns : (string * int) list;  (* spawn fn, task-arg Nolabel index *)
  mutators : (string * int) list;  (* extra mutators: fn, mutated arg *)
  units : (string * dtype) list;  (* units.map contents *)
  allow_grants : C.grant list;
}

let strict_config =
  {
    random_exempt = (fun _ -> false);
    clock_exempt = (fun _ -> false);
    order_scope = (fun _ -> true);
    reach_scope = (fun _ -> false);
    sinks = [];
    spawns = [];
    mutators = [];
    units = [];
    allow_grants = [];
  }

let repo_config ?(units = []) ?(allow_grants = []) () =
  {
    random_exempt = (fun f -> f = "lib/util/rng.ml");
    clock_exempt = (fun f -> C.has_prefix ~prefix:"bench/" f);
    order_scope =
      (fun f ->
        C.has_prefix ~prefix:"lib/" f
        || C.has_prefix ~prefix:"bin/" f
        || C.has_prefix ~prefix:"bench/" f);
    reach_scope = C.has_prefix ~prefix:"lib/";
    sinks =
      [
        "Rcbr_wire.Loadgen.outcome_hash";
        "Rcbr_sim.Call_step.fnv";
        "Rcbr_sim.Call_step.fnv_float";
        "Rcbr_util.Json.to_string";
        "Rcbr_util.Json.save";
      ];
    spawns =
      [
        ("Rcbr_util.Pool.map", 0);
        ("Rcbr_util.Pool.map_array", 0);
        ("Rcbr_util.Pool.init", 1);
        ("Domain.spawn", 0);
      ];
    mutators = [];
    units;
    allow_grants;
  }

(* ------------------------------------------------------------------ *)
(* Units of compilation, definitions, canonical names                  *)
(* ------------------------------------------------------------------ *)

type unit_info = {
  u_mod : string;  (* canonical module name, e.g. "Rcbr_sim.Megacall" *)
  u_file : string;  (* repo-relative source path *)
  u_supps : C.suppressions;
  u_aliases : (string, Path.t) Hashtbl.t;  (* Ident stamp -> target *)
  u_stamps : (string, def) Hashtbl.t;  (* Ident stamp -> definition *)
  u_tables : (string, unit) Hashtbl.t;
      (* Ident stamps of Hashtbl.Make/MakeSeeded instances *)
  u_str : Typedtree.structure;
}

and def = {
  d_name : string;  (* canonical qualified name *)
  d_line : int;  (* line of the binding *)
  d_init : bool;  (* module-initialisation code, named <top:N> *)
  d_params : (Asttypes.arg_label * Ident.t list) list;  (* peeled funs *)
  d_body : Typedtree.expression;  (* whole right-hand side *)
  d_u : unit_info;
  mutable d_taint : string option;  (* returns-taint witness *)
  mutable d_wglobal : (string * int) option;  (* writes shared state *)
  mutable d_wparams : (int * string) list;  (* writes its own params *)
  mutable d_reached : bool;  (* R001: some root reaches it *)
}

type state = {
  cfg : config;
  by_name : (string, def) Hashtbl.t;
  tables : (string, unit) Hashtbl.t;
      (* canonical names of structure-level Hashtbl.Make/MakeSeeded
         instances, for references from other units *)
  units_tbl : (string, dtype) Hashtbl.t;
  rep : C.reporter;
  mutable checking : bool;  (* false during fixpoints: no reports *)
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* "Rcbr_sim__Megacall" -> "Rcbr_sim.Megacall";
   "Dune__exe__Rcbr_mbac" -> "Rcbr_mbac". *)
let canon_string (s : string) =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i < n - 1 && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  let s = Buffer.contents b in
  if C.has_prefix ~prefix:"Dune.exe." s then
    String.sub s 9 (String.length s - 9)
  else s

let rec canon_raw u (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt u.u_aliases (Ident.unique_name id) with
      | Some target -> canon_raw u target
      | None -> Ident.name id)
  | Path.Pdot (b, s) -> canon_raw u b ^ "." ^ s
  | Path.Papply (b, _) | Path.Pextra_ty (b, _) -> canon_raw u b

let canon_name u p = canon_string (canon_raw u p)

let strip_stdlib n =
  if C.has_prefix ~prefix:"Stdlib." n then String.sub n 7 (String.length n - 7)
  else n

(* Resolve a value reference to its definition: same-unit idents by
   stamp, everything else by canonical name (falling back to the
   referencing unit's own module prefix for nested-module paths). *)
let resolve_def st u (p : Path.t) : def option =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt u.u_stamps (Ident.unique_name id) with
      | Some d -> Some d
      | None -> (
          match Hashtbl.find_opt u.u_aliases (Ident.unique_name id) with
          | Some _ -> Hashtbl.find_opt st.by_name (canon_name u p)
          | None -> None))
  | _ -> (
      let n = canon_name u p in
      match Hashtbl.find_opt st.by_name n with
      | Some d -> Some d
      | None -> Hashtbl.find_opt st.by_name (u.u_mod ^ "." ^ n))

(* ------------------------------------------------------------------ *)
(* Typedtree helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec pat_vars : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (q, id, _) -> id :: pat_vars q
  | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_variant (_, Some q, _) -> pat_vars q
  | Tpat_record (fs, _) -> List.concat_map (fun (_, _, q) -> pat_vars q) fs
  | Tpat_lazy q -> pat_vars q
  | Tpat_value v -> pat_vars (v :> Typedtree.pattern)
  | Tpat_exception q -> pat_vars q
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | _ -> []

(* Depth-1 sub-expressions, via a recording iterator that does not
   recurse (module bodies excluded; Texp_letmodule is handled by the
   callers that care). *)
let immediate_subexprs (e : expression) : expression list =
  let acc = ref [] in
  let sub =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ x -> acc := x :: !acc);
      module_expr = (fun _ _ -> ());
    }
  in
  Tast_iterator.default_iterator.expr sub e;
  List.rev !acc

(* Peel leading single-case fun layers: the definition's parameters. *)
let peel_params (e : expression) :
    (Asttypes.arg_label * Ident.t list) list * expression =
  let rec go acc e =
    match e.exp_desc with
    | Texp_function
        { arg_label; param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
      ->
        go ((arg_label, param :: pat_vars c_lhs) :: acc) c_rhs
    | _ -> (List.rev acc, e)
  in
  go [] e

let rec is_arrow_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow_type t
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Definition collection                                               *)
(* ------------------------------------------------------------------ *)

let rec peel_mod (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> `Alias p
  | Tmod_structure s -> `Structure s
  | Tmod_constraint (inner, _, _, _) -> peel_mod inner
  | Tmod_apply (f, _, _) -> `Apply f
  | _ -> `Other

(* A hash-table functor instance: its iter/fold visit buckets in an
   order that depends on the table's history, like the stdlib ones. *)
let is_table_functor u (f : module_expr) =
  match peel_mod f with
  | `Alias p ->
      List.mem (strip_stdlib (canon_name u p))
        [ "Hashtbl.Make"; "Hashtbl.MakeSeeded" ]
  | _ -> false

let add_def st u ~prefix ~name ~line ~ids (body : expression) =
  let params, _ = peel_params body in
  let d =
    {
      d_name = prefix ^ "." ^ name;
      d_line = line;
      d_init = ids = [];
      d_params = params;
      d_body = body;
      d_u = u;
      d_taint = None;
      d_wglobal = None;
      d_wparams = [];
      d_reached = false;
    }
  in
  List.iter (fun id -> Hashtbl.replace u.u_stamps (Ident.unique_name id) d) ids;
  if not (Hashtbl.mem st.by_name d.d_name) then
    Hashtbl.replace st.by_name d.d_name d;
  d

let collect_defs st u =
  let defs = ref [] in
  let rec items prefix (its : structure_item list) =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let line = line_of vb.vb_loc in
                match pat_vars vb.vb_pat with
                | [] ->
                    let name =
                      Printf.sprintf "<top:%d>" (line_of vb.vb_expr.exp_loc)
                    in
                    defs :=
                      add_def st u ~prefix ~name ~line ~ids:[] vb.vb_expr
                      :: !defs
                | id :: _ as ids ->
                    defs :=
                      add_def st u ~prefix ~name:(Ident.name id) ~line ~ids
                        vb.vb_expr
                      :: !defs)
              vbs
        | Tstr_module mb -> modbind prefix mb
        | Tstr_recmodule mbs -> List.iter (modbind prefix) mbs
        | Tstr_eval (e, _) ->
            let line = line_of e.exp_loc in
            let name = Printf.sprintf "<top:%d>" line in
            defs := add_def st u ~prefix ~name ~line ~ids:[] e :: !defs
        | Tstr_include incl -> (
            match peel_mod incl.incl_mod with
            | `Structure s -> items prefix s.str_items
            | _ -> ())
        | _ -> ())
      its
  and modbind prefix mb =
    match (mb.mb_id, peel_mod mb.mb_expr) with
    | Some id, `Alias p ->
        Hashtbl.replace u.u_aliases (Ident.unique_name id) p
    | Some id, `Structure s -> items (prefix ^ "." ^ Ident.name id) s.str_items
    | Some id, `Apply f when is_table_functor u f ->
        Hashtbl.replace u.u_tables (Ident.unique_name id) ();
        Hashtbl.replace st.tables (prefix ^ "." ^ Ident.name id) ()
    | _ -> ()
  in
  (* let-module aliases and table instances anywhere in the unit *)
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_letmodule (Some id, _, _, me, _) -> (
              match peel_mod me with
              | `Alias p ->
                  Hashtbl.replace u.u_aliases (Ident.unique_name id) p
              | `Apply f when is_table_functor u f ->
                  Hashtbl.replace u.u_tables (Ident.unique_name id) ()
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it u.u_str;
  items u.u_mod u.u_str.str_items;
  List.rev !defs

(* ------------------------------------------------------------------ *)
(* Determinism taint (T001, T002)                                      *)
(* ------------------------------------------------------------------ *)

(* Is a one-line inline grant or allowlist grant absorbing reports for
   [rule] at this source line?  Used for taint *sources*: a sanctioned
   source stops tainting everything downstream of it. *)
let absorbed_at st u ~line ~rule =
  match C.inline_grant u.u_supps.C.grants ~line ~rule with
  | Some l ->
      if st.checking then
        st.rep.C.inline_suppressed <-
          (u.u_file, l, rule) :: st.rep.C.inline_suppressed;
      true
  | None ->
      List.exists
        (fun g -> g.C.g_file = u.u_file && g.C.g_rule = rule)
        st.cfg.allow_grants
      && begin
           if st.checking then
             st.rep.C.grant_suppressed <-
               (u.u_file, rule) :: st.rep.C.grant_suppressed;
           true
         end

let file_report st u ~line ~rule msg =
  if st.checking then
    C.report st.rep ~supps:u.u_supps.C.grants ~allowlist:st.cfg.allow_grants
      ~file:u.u_file ~line ~rule msg

let wall_clocks =
  [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime";
    "Unix.localtime" ]

(* [iter]/[fold] of a Hashtbl.Make/MakeSeeded instance: one of this
   unit's (by stamp, at any nesting) or a structure-level one anywhere
   (by canonical name). *)
let table_traversal st u (p : Path.t) =
  match p with
  | Path.Pdot (m, ("fold" | "iter")) -> (
      match m with
      | Path.Pident id when Hashtbl.mem u.u_tables (Ident.unique_name id) ->
          true
      | _ ->
          let n = canon_name u m in
          Hashtbl.mem st.tables n || Hashtbl.mem st.tables (u.u_mod ^ "." ^ n))
  | _ -> false

(* The determinism sources, by canonical name and the file's scope:
   (the D rule reporting each occurrence, if any; what the source is).
   Every one of them is a T001 taint source. *)
let classify_source st u (p : Path.t) =
  let sn = strip_stdlib (canon_name u p) in
  if C.has_prefix ~prefix:"Random." sn && not (st.cfg.random_exempt u.u_file)
  then Some (Some "D001", "Random source " ^ sn)
  else if List.mem sn wall_clocks && not (st.cfg.clock_exempt u.u_file) then
    Some (Some "D003", "wall-clock read " ^ sn)
  else if
    (List.mem sn [ "Hashtbl.fold"; "Hashtbl.iter" ] || table_traversal st u p)
    && st.cfg.order_scope u.u_file
  then Some (Some "D002", "bucket-order-dependent " ^ sn)
  else if sn = "Domain.self" then Some (None, "Domain.self")
  else None

(* Suppressing T001 at the source line kills the taint itself. *)
let source_of st u ~line (p : Path.t) : string option =
  match classify_source st u p with
  | Some (_, what) when not (absorbed_at st u ~line ~rule:"T001") ->
      Some (Printf.sprintf "%s (%s:%d)" what u.u_file line)
  | _ -> None

let join a b = match a with Some _ -> a | None -> b

let is_sink st u f_expr =
  match f_expr.exp_desc with
  | Texp_ident (p, _, _) ->
      let n = canon_name u p in
      if List.mem n st.cfg.sinks then Some n
      else (
        match resolve_def st u p with
        | Some d when List.mem d.d_name st.cfg.sinks -> Some d.d_name
        | _ -> None)
  | _ -> None

(* Value-level taint with let/match binding and control-dependence
   joins; [check] additionally fires T001 at sink arguments, T002 at
   closure hashes, and E001 at spawn sites. *)
let rec taint st u env (e : expression) : string option =
  let self = taint st u env in
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
          Hashtbl.find env (Ident.unique_name id)
      | _ -> (
          match resolve_def st u p with
          | Some d ->
              Option.map (fun w -> w ^ " via " ^ d.d_name) d.d_taint
          | None ->
              source_of st u ~line:(line_of e.exp_loc) p))
  | Texp_apply (f, args) -> taint_apply st u env e f args
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          let t = self vb.vb_expr in
          List.iter
            (fun id -> Hashtbl.replace env (Ident.unique_name id) t)
            (pat_vars vb.vb_pat))
        vbs;
      self body
  | Texp_function { cases; _ } ->
      List.fold_left
        (fun acc c ->
          List.iter
            (fun id -> Hashtbl.replace env (Ident.unique_name id) None)
            (pat_vars c.c_lhs);
          let g = match c.c_guard with Some g -> self g | None -> None in
          join acc (join g (self c.c_rhs)))
        None cases
  | Texp_match (scrut, cases, _) ->
      let ts = self scrut in
      List.fold_left
        (fun acc c ->
          List.iter
            (fun id -> Hashtbl.replace env (Ident.unique_name id) ts)
            (pat_vars c.c_lhs);
          let g = match c.c_guard with Some g -> self g | None -> None in
          join acc (join g (self c.c_rhs)))
        ts cases
  | Texp_try (body, cases) ->
      List.fold_left
        (fun acc c ->
          List.iter
            (fun id -> Hashtbl.replace env (Ident.unique_name id) None)
            (pat_vars c.c_lhs);
          join acc (self c.c_rhs))
        (self body) cases
  | Texp_ifthenelse (c, a, b) ->
      let tc = self c in
      let ta = self a in
      let tb = match b with Some b -> self b | None -> None in
      join tc (join ta tb)
  | Texp_sequence (a, b) ->
      ignore (self a : string option);
      self b
  | Texp_letmodule (_, _, _, _, body) -> self body
  | _ ->
      List.fold_left
        (fun acc x -> join acc (self x))
        None (immediate_subexprs e)

and taint_apply st u env e f args =
  let self = taint st u env in
  let arg_taints =
    List.map
      (fun (_, a) -> match a with Some a -> self a | None -> None)
      args
  in
  let from_args = List.fold_left join None arg_taints in
  (* T001: tainted value reaching a sink argument *)
  (match is_sink st u f with
  | Some sink ->
      List.iter2
        (fun (_, a) t ->
          match (a, t) with
          | Some a, Some w ->
              file_report st u ~line:(line_of a.exp_loc) ~rule:"T001"
                (Printf.sprintf
                   "value derived from %s reaches determinism sink %s" w sink)
          | _ -> ())
        args arg_taints
  | None -> ());
  (* A sink passed to a higher-order call (List.fold_left fnv h xs):
     tainted data anywhere in the call feeds the sink. *)
  (match
     List.find_map
       (fun (_, a) ->
         match a with Some a -> is_sink st u a | None -> None)
       args
   with
  | Some sink -> (
      match List.fold_left join None arg_taints with
      | Some w ->
          file_report st u ~line:(line_of e.exp_loc) ~rule:"T001"
            (Printf.sprintf
               "value derived from %s reaches determinism sink %s through a \
                higher-order call"
               w sink)
      | None -> ())
  | None -> ());
  let fname =
    match f.exp_desc with
    | Texp_ident (p, _, _) -> Some (canon_name u p)
    | _ -> None
  in
  (* T002: address-based hash of a closure *)
  let t002 =
    match fname with
    | Some n
      when List.mem (strip_stdlib n) [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ]
      ->
        List.fold_left
          (fun acc (_, a) ->
            match a with
            | Some a when is_arrow_type a.exp_type ->
                let line = line_of a.exp_loc in
                file_report st u ~line ~rule:"T002"
                  (Printf.sprintf
                     "%s of a closure hashes code/environment addresses"
                     (strip_stdlib n));
                join acc
                  (Some (Printf.sprintf "closure hash (%s:%d)" u.u_file line))
            | _ -> acc)
          None args
    | _ -> None
  in
  let from_f =
    match f.exp_desc with
    | Texp_ident (p, _, _) -> (
        match p with
        | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
            Hashtbl.find env (Ident.unique_name id)
        | _ -> (
            match resolve_def st u p with
            | Some d ->
                Option.map (fun w -> w ^ " via " ^ d.d_name) d.d_taint
            | None ->
                source_of st u ~line:(line_of e.exp_loc) p))
    | _ -> self f
  in
  join t002 (join from_f from_args)

(* ------------------------------------------------------------------ *)
(* Identifier rules (D001-D003, F001, F002, P001)                      *)
(* ------------------------------------------------------------------ *)

let d_advice = function
  | "D001" ->
      "— all randomness must flow through Rcbr_util.Rng (splittable, \
       replayable)"
  | "D002" ->
      "in a result path — iterate in sorted key order (Rcbr_util.Tables) or \
       suppress with a reason"
  | _ -> "outside bench/ breaks replayability — take time as an input"

let poly_cmps = [ "="; "<>"; "compare"; "min"; "max" ]
let nan_cmps = [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare" ]

(* float, or a tuple or type application with a float inside.  Type
   abbreviations are not expanded: a .cmt keeps only environment
   summaries, not an environment to expand them in. *)
let rec float_bearing ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      Path.same p Predef.path_float || List.exists float_bearing args
  | Types.Ttuple ts -> List.exists float_bearing ts
  | _ -> false

(* [x = []] or [o <> None] decides a shape, never a float ordering. *)
let is_constant_constructor (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, _, []) | Texp_variant (_, None) -> true
  | _ -> false

(* Every identifier occurrence in the unit, applied or passed as a
   value: [List.fold_left max 0. xs] instantiates [max] at float just
   as [max a b] does. *)
let check_idents st u =
  let report (loc : Location.t) rule msg =
    file_report st u ~line:(line_of loc) ~rule msg
  in
  let is_nan (a : expression) =
    match a.exp_desc with
    | Texp_ident (q, _, _) ->
        List.mem (canon_name u q) [ "Stdlib.nan"; "Stdlib.Float.nan" ]
    | _ -> false
  in
  let ident ~at (f : expression) p args =
    let n = canon_name u p in
    let sn = strip_stdlib n in
    (match classify_source st u p with
    | Some (Some rule, what) ->
        report f.exp_loc rule (what ^ " " ^ d_advice rule)
    | _ -> ());
    if sn = "Obj.magic" then
      report f.exp_loc "P001"
        "Obj.magic defeats the type system — no use is admissible here";
    if C.has_prefix ~prefix:"Stdlib." n then
      if List.mem sn nan_cmps && List.exists is_nan args then
        report at "F002"
          (Printf.sprintf
             "comparison (%s) against nan is always false/unspecified — use \
              Float.is_nan"
             sn)
      else if
        List.mem sn poly_cmps
        && not (List.exists is_constant_constructor args)
      then
        match Types.get_desc f.exp_type with
        | Types.Tarrow (_, operand, _, _) when float_bearing operand ->
            report at "F001"
              (Format.asprintf
                 "polymorphic %s instantiated at %a — use Float.%s" sn
                 Printtyp.type_expr operand
                 (if sn = "<>" then "equal (negated)"
                  else if sn = "=" then "equal"
                  else sn))
        | _ -> ()
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args) ->
              ident ~at:e.exp_loc f p (List.filter_map snd args);
              List.iter (fun (_, a) -> Option.iter (self.expr self) a) args
          | Texp_ident (p, _, _) -> ident ~at:e.exp_loc e p []
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter u.u_str

(* ------------------------------------------------------------------ *)
(* Escape analysis (E001)                                              *)
(* ------------------------------------------------------------------ *)

type wtarget = WGlobal of string | WParam of int

type wevent = { w_target : wtarget; w_what : string; w_line : int }

let builtin_mutators =
  [
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Bytes.set", 0); ("Bytes.unsafe_set", 0);
    ("Bytes.fill", 0); ("Bytes.blit", 2); ("Hashtbl.replace", 0);
    ("Hashtbl.add", 0); ("Hashtbl.remove", 0); ("Hashtbl.clear", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.filter_map_inplace", 1);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_buffer", 0); ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Queue.add", 1); ("Queue.push", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Stack.push", 1); ("Stack.pop", 0);
    ("Atomic.set", 0); ("Atomic.incr", 0); ("Atomic.decr", 0);
    ("Atomic.exchange", 0); ("Atomic.fetch_and_add", 0);
  ]

(* Base identifier of a write target, peeling field/element access. *)
let rec write_base st u (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _)
    when not (Hashtbl.mem u.u_aliases (Ident.unique_name id)) ->
      `Id id
  | Texp_ident (p, _, _) -> `Qualified (canon_name u p)
  | Texp_field (b, _, _) -> write_base st u b
  | Texp_apply (f, (_, Some a) :: _) -> (
      match f.exp_desc with
      | Texp_ident (p, _, _)
        when List.mem
               (strip_stdlib (canon_name u p))
               [ "Array.get"; "Array.unsafe_get"; "Bytes.get"; "!" ] ->
          write_base st u a
      | _ -> `None)
  | _ -> `None

let nolabel_args args =
  List.filter_map
    (fun (l, a) ->
      match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* Match supplied arguments to a definition's peeled parameter slots,
   returning (param index, argument) pairs. *)
let match_params (d : def) args =
  let taken = Array.make (List.length d.d_params) false in
  let slot lbl =
    let rec go i = function
      | [] -> None
      | (pl, _) :: rest ->
          let ok =
            (not taken.(i))
            &&
            match (lbl, pl) with
            | Asttypes.Nolabel, Asttypes.Nolabel -> true
            | Asttypes.Labelled a, Asttypes.Labelled b
            | Asttypes.Optional a, Asttypes.Optional b
            | Asttypes.Labelled a, Asttypes.Optional b ->
                a = b
            | _ -> false
          in
          if ok then begin
            taken.(i) <- true;
            Some i
          end
          else go (i + 1) rest
    in
    go 0 d.d_params
  in
  List.filter_map
    (fun (l, a) ->
      match a with
      | Some a -> ( match slot l with Some i -> Some (i, a) | None -> None)
      | None -> (
          ignore (slot l : int option);
          None))
    args

(* All writes in [body] escaping the frame: frame maps ident stamps to
   `Param i (the enclosing definition's parameters) or `Safe (locals,
   per-task arguments).  Everything unknown is free, hence shared. *)
let writes_in st u ~frame (body : expression) : wevent list =
  let events = ref [] in
  let bind_safe ids =
    (* never demote a pre-seeded `Param entry: the definition's own
       fun layers re-bind the same idents during the walk *)
    List.iter
      (fun id ->
        let k = Ident.unique_name id in
        if not (Hashtbl.mem frame k) then Hashtbl.replace frame k `Safe)
      ids
  in
  let emit line what = function
    | `None -> ()
    | `Qualified n ->
        events := { w_target = WGlobal n; w_what = what; w_line = line } :: !events
    | `Id id -> (
        match Hashtbl.find_opt frame (Ident.unique_name id) with
        | Some `Safe -> ()
        | Some (`Param i) ->
            events :=
              { w_target = WParam i; w_what = what; w_line = line } :: !events
        | None ->
            events :=
              { w_target = WGlobal (Ident.name id); w_what = what;
                w_line = line }
              :: !events)
  in
  let rec go (e : expression) =
    match e.exp_desc with
    | Texp_let (_, vbs, b) ->
        List.iter
          (fun vb ->
            go vb.vb_expr;
            bind_safe (pat_vars vb.vb_pat))
          vbs;
        go b
    | Texp_function { param; cases; _ } ->
        bind_safe [ param ];
        List.iter
          (fun c ->
            bind_safe (pat_vars c.c_lhs);
            (match c.c_guard with Some g -> go g | None -> ());
            go c.c_rhs)
          cases
    | Texp_match (s, cases, _) ->
        go s;
        List.iter
          (fun c ->
            bind_safe (pat_vars c.c_lhs);
            (match c.c_guard with Some g -> go g | None -> ());
            go c.c_rhs)
          cases
    | Texp_try (b, cases) ->
        go b;
        List.iter
          (fun c ->
            bind_safe (pat_vars c.c_lhs);
            go c.c_rhs)
          cases
    | Texp_setfield (b, _, lbl, v) ->
        emit (line_of e.exp_loc)
          (Printf.sprintf "assignment to field %s" lbl.Types.lbl_name)
          (write_base st u b);
        go b;
        go v
    | Texp_apply (f, args) ->
        (let fname =
           match f.exp_desc with
           | Texp_ident (p, _, _) -> Some (strip_stdlib (canon_name u p))
           | _ -> None
         in
         let line = line_of e.exp_loc in
         match fname with
         | Some n when List.mem n [ ":="; "incr"; "decr" ] -> (
             match nolabel_args args with
             | a :: _ ->
                 emit line ("reference " ^ n ^ " update") (write_base st u a)
             | [] -> ())
         | Some n
           when List.mem_assoc n (builtin_mutators @ st.cfg.mutators) -> (
             let i = List.assoc n (builtin_mutators @ st.cfg.mutators) in
             match List.nth_opt (nolabel_args args) i with
             | Some a -> emit line (n ^ " mutation") (write_base st u a)
             | None -> ())
         | _ -> (
             match f.exp_desc with
             | Texp_ident (p, _, _) -> (
                 match resolve_def st u p with
                 | Some g ->
                     (match g.d_wglobal with
                     | Some (what, _) ->
                         events :=
                           { w_target = WGlobal (g.d_name ^ ": " ^ what);
                             w_what = "call to " ^ g.d_name;
                             w_line = line }
                           :: !events
                     | None -> ());
                     List.iter
                       (fun (j, a) ->
                         if List.mem_assoc j g.d_wparams then
                           emit line
                             (Printf.sprintf "passed to %s, which %s" g.d_name
                                (List.assoc j g.d_wparams))
                             (write_base st u a))
                       (match_params g args)
                 | None -> ())
             | _ -> ()));
        go f;
        List.iter (fun (_, a) -> match a with Some a -> go a | None -> ()) args
    | Texp_letmodule (_, _, _, _, b) -> go b
    | _ -> List.iter go (immediate_subexprs e)
  in
  go body;
  List.rev !events

(* Spawn-site checks: literal task closures must not write captured
   state; partially-applied task functions must not write shared state
   or their partially-applied (hence task-shared) arguments. *)
let check_task st u ~spname task =
  match task.exp_desc with
  | Texp_function _ ->
      let frame = Hashtbl.create 16 in
      let evs = writes_in st u ~frame task in
      List.iter
        (fun ev ->
          match ev.w_target with
          | WGlobal what ->
              file_report st u ~line:ev.w_line ~rule:"E001"
                (Printf.sprintf
                   "%s task writes captured mutable state %s (%s)" spname
                   what ev.w_what)
          | WParam _ -> ())
        evs
  | _ -> (
      let g_expr, gargs =
        match task.exp_desc with
        | Texp_apply (g, a) -> (g, a)
        | _ -> (task, [])
      in
      match g_expr.exp_desc with
      | Texp_ident (p, _, _) -> (
          match resolve_def st u p with
          | Some g ->
              let line = line_of task.exp_loc in
              (match g.d_wglobal with
              | Some (what, wline) ->
                  file_report st u ~line ~rule:"E001"
                    (Printf.sprintf
                       "%s task %s writes shared mutable state: %s \
                        (%s:%d)"
                       spname g.d_name what g.d_u.u_file wline)
              | None -> ());
              let bound = List.map fst (match_params g gargs) in
              let per_item =
                let rec first i = if List.mem i bound then first (i + 1) else i in
                first 0
              in
              List.iter
                (fun (j, what) ->
                  if List.mem j bound then
                    file_report st u ~line ~rule:"E001"
                      (Printf.sprintf
                         "argument %d of %s is shared across %s tasks, and \
                          the task %s"
                         j g.d_name spname what)
                  else if j <> per_item then ())
                g.d_wparams
          | None -> ())
      | _ -> ())

let check_spawns st u body =
  let rec go e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        let sp =
          match f.exp_desc with
          | Texp_ident (p, _, _) -> (
              let n = strip_stdlib (canon_name u p) in
              match List.assoc_opt n st.cfg.spawns with
              | Some i -> Some (n, i)
              | None -> (
                  match resolve_def st u p with
                  | Some g ->
                      Option.map
                        (fun i -> (g.d_name, i))
                        (List.assoc_opt g.d_name st.cfg.spawns)
                  | None -> None))
          | _ -> None
        in
        match sp with
        | Some (spname, ti) -> (
            match List.nth_opt (nolabel_args args) ti with
            | Some task -> check_task st u ~spname task
            | None -> ())
        | None -> ())
    | _ -> ());
    List.iter go (immediate_subexprs e)
  in
  go body

(* ------------------------------------------------------------------ *)
(* Units of measure (U001, U002)                                       *)
(* ------------------------------------------------------------------ *)

let units_lookup st u n =
  match Hashtbl.find_opt st.units_tbl n with
  | Some d -> Some d
  | None -> Hashtbl.find_opt st.units_tbl (u.u_mod ^ "." ^ n)

let field_key u (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) ->
      Some (canon_name u p ^ "." ^ lbl.Types.lbl_name)
  | _ -> None

let join_dt a b =
  match (a, b) with
  | Dim x, Dim y when x = y -> Dim x
  | Dim x, Unknown -> Dim x
  | Unknown, Dim y -> Dim y
  | _ -> Unknown

let label_str = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled l -> "~" ^ l
  | Asttypes.Optional l -> "?" ^ l

let rec dim_of st u env (e : expression) : dtype =
  let self = dim_of st u env in
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
          Hashtbl.find env (Ident.unique_name id)
      | _ -> (
          match units_lookup st u (canon_name u p) with
          | Some dt -> dt
          | None -> (
              match resolve_def st u p with
              | Some d -> (
                  match Hashtbl.find_opt st.units_tbl d.d_name with
                  | Some dt -> dt
                  | None -> Unknown)
              | None -> Unknown)))
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          let dt = self vb.vb_expr in
          match pat_vars vb.vb_pat with
          | [ id ] -> Hashtbl.replace env (Ident.unique_name id) dt
          | _ -> ())
        vbs;
      self body
  | Texp_function { cases; _ } ->
      List.iter (fun c -> ignore (self c.c_rhs : dtype)) cases;
      Unknown
  | Texp_match (s, cases, _) ->
      ignore (self s : dtype);
      List.fold_left (fun acc c -> join_dt acc (self c.c_rhs)) Unknown cases
  | Texp_try (b, cases) ->
      List.fold_left (fun acc c -> join_dt acc (self c.c_rhs)) (self b) cases
  | Texp_ifthenelse (c, a, b) -> (
      ignore (self c : dtype);
      let da = self a in
      match b with Some b -> join_dt da (self b) | None -> Unknown)
  | Texp_sequence (a, b) ->
      ignore (self a : dtype);
      self b
  | Texp_field (b, _, lbl) -> (
      ignore (self b : dtype);
      match field_key u lbl with
      | Some k -> (
          match units_lookup st u k with Some dt -> dt | None -> Unknown)
      | None -> Unknown)
  | Texp_setfield (b, _, lbl, v) ->
      ignore (self b : dtype);
      (let dv = self v in
       match (field_key u lbl, dv) with
       | Some k, Dim got -> (
           match units_lookup st u k with
           | Some (Dim want) when want <> got ->
               file_report st u ~line:(line_of v.exp_loc) ~rule:"U002"
                 (Printf.sprintf "field %s holds %s, assigned %s" k
                    (dim_to_string want) (dim_to_string got))
           | _ -> ())
       | _ -> ());
      Unknown
  | Texp_record { fields; extended_expression; _ } ->
      (match extended_expression with
      | Some x -> ignore (self x : dtype)
      | None -> ());
      Array.iter
        (fun (lbl, rld) ->
          match rld with
          | Overridden (_, v) -> (
              let dv = self v in
              match (field_key u lbl, dv) with
              | Some k, Dim got -> (
                  match units_lookup st u k with
                  | Some (Dim want) when want <> got ->
                      file_report st u ~line:(line_of v.exp_loc) ~rule:"U002"
                        (Printf.sprintf
                           "field %s declared %s, initialized with %s" k
                           (dim_to_string want) (dim_to_string got))
                  | _ -> ())
              | _ -> ())
          | Kept _ -> ())
        fields;
      Unknown
  | Texp_apply (f, args) -> dim_apply st u env e f args
  | Texp_letmodule (_, _, _, _, b) -> self b
  | _ ->
      List.iter (fun x -> ignore (self x : dtype)) (immediate_subexprs e);
      Unknown

and dim_apply st u env e f args =
  let self = dim_of st u env in
  let argds =
    List.map
      (fun (_, a) -> match a with Some a -> self a | None -> Unknown)
      args
  in
  let fname =
    match f.exp_desc with
    | Texp_ident (p, _, _) -> Some (strip_stdlib (canon_name u p))
    | _ ->
        ignore (self f : dtype);
        None
  in
  let two () = match argds with [ a; b ] -> Some (a, b) | _ -> None in
  let mismatch op a b =
    file_report st u ~line:(line_of e.exp_loc) ~rule:"U001"
      (Printf.sprintf "%s between %s and %s" op (dim_to_string a)
         (dim_to_string b))
  in
  match fname with
  | Some op when List.mem op [ "+."; "-."; "+"; "-"; "mod" ] -> (
      match two () with
      | Some (Dim a, Dim b) ->
          if a <> b then mismatch op a b;
          Dim a
      | Some (Dim a, Unknown) | Some (Unknown, Dim a) -> Dim a
      | _ -> Unknown)
  | Some (("*." | "*") as op) -> (
      ignore op;
      match two () with
      | Some (Dim a, Dim b) -> Dim (dim_mul a b)
      | _ -> Unknown)
  | Some (("/." | "/") as op) -> (
      ignore op;
      match two () with
      | Some (Dim a, Dim b) -> Dim (dim_mul a (dim_inv b))
      | _ -> Unknown)
  | Some op
    when List.mem op
           [ "~-."; "~-"; "abs"; "Float.abs"; "float_of_int"; "int_of_float";
             "Float.of_int"; "Float.to_int"; "truncate"; "ceil"; "floor";
             "Float.round" ] -> (
      match argds with [ a ] -> a | _ -> Unknown)
  | Some op when List.mem op [ "min"; "max"; "Float.min"; "Float.max" ] -> (
      match two () with
      | Some (Dim a, Dim b) ->
          if a <> b then mismatch op a b;
          Dim a
      | Some (Dim a, Unknown) | Some (Unknown, Dim a) -> Dim a
      | _ -> Unknown)
  | Some op
    when List.mem op
           [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "Float.compare";
             "Float.equal"; "Int.compare" ] ->
      (match two () with
      | Some (Dim a, Dim b) when a <> b -> mismatch op a b
      | _ -> ());
      Unknown
  | Some (("Array.get" | "Array.unsafe_get") as op) -> (
      ignore op;
      match argds with a :: _ -> a | [] -> Unknown)
  | _ -> (
      let ann =
        match f.exp_desc with
        | Texp_ident (p, _, _) -> (
            let n = canon_name u p in
            match units_lookup st u n with
            | Some dt -> Some (n, dt)
            | None -> (
                match resolve_def st u p with
                | Some d ->
                    Option.map
                      (fun dt -> (d.d_name, dt))
                      (Hashtbl.find_opt st.units_tbl d.d_name)
                | None -> None))
        | _ -> None
      in
      match ann with
      | Some (n, Fn (slots, ret)) -> apply_slots st u ~fn:n slots ret args argds
      | _ -> Unknown)

and apply_slots st u ~fn slots ret args argds =
  let taken = Array.make (List.length slots) false in
  let find lbl =
    let rec go i = function
      | [] -> None
      | (sl, dt) :: rest ->
          if (not taken.(i)) && sl = lbl then begin
            taken.(i) <- true;
            Some dt
          end
          else go (i + 1) rest
    in
    go 0 slots
  in
  List.iter2
    (fun (l, a) da ->
      match find (label_str l) with
      | Some (Dim want) -> (
          match (a, da) with
          | Some a, Dim got when got <> want ->
              let ls = label_str l in
              file_report st u ~line:(line_of a.exp_loc) ~rule:"U002"
                (Printf.sprintf "argument %s of %s expects %s, got %s"
                   (if ls = "" then "(positional)" else ls)
                   fn (dim_to_string want) (dim_to_string got))
          | _ -> ())
      | _ -> ())
    args argds;
  let remaining = List.filteri (fun i _ -> not taken.(i)) slots in
  if remaining = [] then ret else Fn (remaining, ret)

(* ------------------------------------------------------------------ *)
(* Reachability (R001)                                                 *)
(* ------------------------------------------------------------------ *)

(* Mark everything the roots reach: a worklist over the definition
   table, each value reference in a reached body resolved like every
   other pass resolves it.  A partial application or a closure stored
   in a record is an ordinary reference. *)
let reach st roots =
  let work = Stack.create () in
  let push d =
    if not d.d_reached then begin
      d.d_reached <- true;
      Stack.push d work
    end
  in
  List.iter push roots;
  while not (Stack.is_empty work) do
    let d = Stack.pop work in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_ident (p, _, _) -> Option.iter push (resolve_def st d.d_u p)
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it d.d_body
  done

(* R001: a definition in [reach_scope] that no program runs.  The roots
   are every definition of a unit outside the scope and outside test/
   (the executables, bench programs and examples), the initialisation
   code of every unit outside test/, and every definition with an
   inline R001 grant, so that what a granted probe calls stays reached.
   Tests are not roots: code that only a test reaches is the finding.  A
   grant on a definition the programs already reach is stale (GRANT):
   as a root it would keep the definition and its callees alive once
   the programs stop calling it. *)
let check_reach st defs =
  let in_scope d = st.cfg.reach_scope d.d_u.u_file in
  let granted d =
    C.inline_grant d.d_u.u_supps.C.grants ~line:d.d_line ~rule:"R001" <> None
  in
  reach st
    (List.filter
       (fun d ->
         (not (C.has_prefix ~prefix:"test/" d.d_u.u_file))
         && (d.d_init || not (in_scope d)))
       defs);
  List.iter
    (fun d ->
      if granted d && d.d_reached then
        C.raw st.rep
          {
            C.file = d.d_u.u_file;
            line = d.d_line;
            rule = "GRANT";
            message =
              Printf.sprintf
                "stale R001 grant: a program reaches %s — delete the grant"
                d.d_name;
          })
    defs;
  let unreached =
    List.filter (fun d -> in_scope d && not (d.d_init || d.d_reached)) defs
  in
  reach st (List.filter granted unreached);
  List.iter
    (fun d ->
      if granted d || not d.d_reached then
        file_report st d.d_u ~line:d.d_line ~rule:"R001"
          (Printf.sprintf
             "%s is reached from no executable, bench program or example — \
              delete it with its tests, or grant it inline with the reason a \
              test needs it"
             d.d_name))
    unreached

(* ------------------------------------------------------------------ *)
(* Fixpoints and per-definition checks                                 *)
(* ------------------------------------------------------------------ *)

let summarize_writes st d : bool =
  let frame = Hashtbl.create 16 in
  List.iteri
    (fun i (_, ids) ->
      List.iter
        (fun id -> Hashtbl.replace frame (Ident.unique_name id) (`Param i))
        ids)
    d.d_params;
  let evs = writes_in st d.d_u ~frame d.d_body in
  let changed = ref false in
  List.iter
    (fun ev ->
      match ev.w_target with
      | WGlobal what ->
          if d.d_wglobal = None then begin
            d.d_wglobal <- Some (what ^ " (" ^ ev.w_what ^ ")", ev.w_line);
            changed := true
          end
      | WParam i ->
          if not (List.mem_assoc i d.d_wparams) then begin
            d.d_wparams <- (i, ev.w_what) :: d.d_wparams;
            changed := true
          end)
    evs;
  !changed

let run_fixpoints st defs =
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 50 do
    changed := false;
    incr iters;
    List.iter
      (fun d ->
        if d.d_taint = None then begin
          let env = Hashtbl.create 32 in
          match taint st d.d_u env d.d_body with
          | Some w ->
              d.d_taint <- Some w;
              changed := true
          | None -> ()
        end)
      defs
  done;
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 50 do
    changed := false;
    incr iters;
    List.iter
      (fun d -> if summarize_writes st d then changed := true)
      defs
  done

let check_units st d =
  let u = d.d_u in
  let env = Hashtbl.create 32 in
  (match Hashtbl.find_opt st.units_tbl d.d_name with
  | Some (Fn (slots, _)) ->
      let rec bind slots params =
        match (slots, params) with
        | (sl, dt) :: srest, (plbl, ids) :: prest when sl = label_str plbl ->
            (match (dt, plbl) with
            | Dim _, (Asttypes.Nolabel | Asttypes.Labelled _) ->
                List.iter
                  (fun id -> Hashtbl.replace env (Ident.unique_name id) dt)
                  ids
            | _ -> ());
            bind srest prest
        | _ -> ()
      in
      bind slots d.d_params
  | _ -> ());
  ignore (dim_of st u env d.d_body : dtype)

let check_def st d =
  let env = Hashtbl.create 32 in
  ignore (taint st d.d_u env d.d_body : string option);
  check_spawns st d.d_u d.d_body;
  if Hashtbl.length st.units_tbl > 0 then check_units st d

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze ~config (units : unit_info list) : C.reporter =
  let st =
    {
      cfg = config;
      by_name = Hashtbl.create 512;
      tables = Hashtbl.create 16;
      units_tbl = Hashtbl.create 64;
      rep = C.make_reporter ();
      checking = false;
    }
  in
  List.iter (fun (n, d) -> Hashtbl.replace st.units_tbl n d) config.units;
  let defs = List.concat_map (collect_defs st) units in
  run_fixpoints st defs;
  st.checking <- true;
  List.iter
    (fun u -> List.iter (C.raw st.rep) u.u_supps.C.supp_errors)
    units;
  List.iter (check_def st) defs;
  List.iter (check_idents st) units;
  check_reach st defs;
  List.iter
    (fun u ->
      List.iter (C.raw st.rep)
        (C.dead_inline_grants st.rep ~file:u.u_file u.u_supps.C.grants))
    units;
  (* A sink that names no definition guards nothing: a renamed or
     moved mixer would drop out of T001 without a word. *)
  List.iter
    (fun sink ->
      if not (Hashtbl.mem st.by_name sink) then
        C.raw st.rep
          {
            C.file = "tools/lint/tlint.ml";
            line = 1;
            rule = "SINK";
            message =
              Printf.sprintf
                "T001 sink %s names no definition in the analysed units — \
                 point the sink list (Tlint.repo_config) at the mixer's \
                 new name"
                sink;
          })
    config.sinks;
  st.rep

let make_unit ~modname ~filename ~source (str : Typedtree.structure) =
  {
    u_mod = modname;
    u_file = C.normalize filename;
    u_supps = C.scan_suppressions ~file:(C.normalize filename) source;
    u_aliases = Hashtbl.create 16;
    u_stamps = Hashtbl.create 64;
    u_tables = Hashtbl.create 4;
    u_str = str;
  }

(* Type a source held in memory against the stdlib environment plus
   [Unix] — the fixture entry point used by test/test_lint.ml.  Typing
   or parse errors come back as a PARSE violation. *)
let type_source ~modname ~filename source :
    (unit_info, C.violation) Stdlib.result =
  try
    Clflags.include_dirs := [ "+unix" ];
    Compmisc.init_path ();
    Env.set_unit_name modname;
    let env = Compmisc.initial_env () in
    let lb = Lexing.from_string source in
    Location.input_name := filename;
    Location.init lb filename;
    let past = Parse.implementation lb in
    let str, _, _, _, _ = Typemod.type_structure env past in
    Ok (make_unit ~modname ~filename ~source str)
  with exn ->
    let line, msg =
      match Location.error_of_exn exn with
      | Some (`Ok err) ->
          let loc = err.Location.main.Location.loc in
          let s =
            Format.asprintf "%a" Location.print_report err
            |> String.map (fun c -> if c = '\n' then ' ' else c)
          in
          (line_of loc, String.trim s)
      | _ -> (1, Printexc.to_string exn)
    in
    Error
      { C.file = C.normalize filename; line; rule = "PARSE"; message = msg }

let check_sources ~config (srcs : (string * string * string) list) :
    C.violation list =
  let units, errs =
    List.fold_left
      (fun (us, es) (modname, filename, source) ->
        match type_source ~modname ~filename source with
        | Ok u -> (u :: us, es)
        | Error v -> (us, v :: es))
      ([], []) srcs
  in
  let rep = analyze ~config (List.rev units) in
  C.sort_violations (errs @ rep.C.out)

(* Load one .cmt produced by dune; [scope_ok] filters by the
   repo-relative source path recorded in it.  Suppression comments are
   read back from the source file (present next to the build tree —
   the @lint rule runs in _build/default where dune copied them). *)
let load_cmt ~scope_ok path : unit_info option =
  let info = Cmt_format.read_cmt path in
  match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
  | Cmt_format.Implementation str, Some f when scope_ok (C.normalize f) ->
      let f = C.normalize f in
      let source = try C.read_file f with _ -> "" in
      Some
        (make_unit
           ~modname:(canon_string info.Cmt_format.cmt_modname)
           ~filename:f ~source str)
  | _ -> None

type result = {
  violations : C.violation list;
  units_scanned : int;
  reporter : C.reporter;
}

(* Analyze a set of .cmt files (unreadable ones are skipped; duplicate
   module names keep the first occurrence), then hold the loaded trees
   against the sources: a .ml under the roots that no tree covers is
   code the analyzer never saw, and that fails the gate too. *)
let run_cmts ~config ~roots (cmt_paths : string list) : result =
  let under_roots f =
    List.exists (fun r -> C.has_prefix ~prefix:(C.normalize r ^ "/") f) roots
  in
  let seen = Hashtbl.create 64 in
  let units =
    List.filter_map
      (fun p ->
        match (try load_cmt ~scope_ok:under_roots p with _ -> None) with
        | Some u when not (Hashtbl.mem seen u.u_mod) ->
            Hashtbl.replace seen u.u_mod ();
            Some u
        | _ -> None)
      cmt_paths
  in
  let rep = analyze ~config units in
  List.iter
    (fun file ->
      if not (List.exists (fun u -> u.u_file = file) units) then
        C.raw rep
          {
            C.file;
            line = 1;
            rule = "PARSE";
            message =
              "no typed tree (.cmt) was loaded for this source, so the \
               analyzer cannot see it — no stanza compiles it, its .cmt is \
               missing, or another unit has the same module name";
          })
    (C.discover roots);
  {
    violations = C.sort_violations rep.C.out;
    units_scanned = List.length units;
    reporter = rep;
  }
