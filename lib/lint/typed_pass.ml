(* Stage 2 of the linter: the typed pass.

   Compilation units arrive as .cmt files (dune builds with -bin-annot;
   [load_dir] walks a build directory) or as in-process typechecked
   strings ([typecheck_string], used by the test suite and fixtures).
   Rules run in two phases: phase 1 builds a tree-wide {!index} over
   every unit (which functions hand out Domain.DLS lane scratch, which
   are validators that raise on bad input); phase 2 runs each rule on
   each unit with the index in hand, so a rule can recognise a call to
   [Bitvec.check_same_len] or [Gf2.table_scratch] from another module.

   Findings flow through the same pragma machinery as the source pass
   ({!Lint.apply_pragmas}), with suppression windows computed from the
   typed tree so one pragma above a function covers its whole body. *)

type tunit = {
  tu_path : string; (* source path, build-relative, e.g. lib/kern/bcc_kern.ml *)
  tu_src : string option; (* raw source text, for pragma extraction *)
  tu_str : Typedtree.structure;
}

type index = {
  ix_accessors : (string, unit) Hashtbl.t;
      (* names of functions returning Domain.DLS lane state *)
  ix_validators : (string, unit) Hashtbl.t;
      (* names of unit-returning functions that raise on bad input *)
}

type collector = {
  c_path : string;
  mutable c_findings : Lint.finding list;
  mutable c_sites : Lint.site list;
}

type rule_fn = index -> tunit -> noalloc:Lint.noalloc_mark list -> collector -> unit

(* ------------------------------------------------------------ helpers *)

let has_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let ident_of e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, vd) -> Some (p, vd)
  | _ -> None

let prim_name (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim p -> Some p.Primitive.prim_name
  | _ -> None

let app_parts e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, args) -> Some (f, args)
  | _ -> None

(* Iterate [f] over [e] and every subexpression. *)
let iter_exprs f e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.Tast_iterator.expr it e

exception Found_expr

let exists_expr pred e =
  match iter_exprs (fun e -> if pred e then raise Found_expr) e with
  | () -> false
  | exception Found_expr -> true

let type_path ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some p
  | _ -> None

(* Conservatively: values of these types are unboxed machine words, so a
   DLS read of one cannot alias mutable lane state. *)
let is_immediate_type ty =
  match type_path ty with
  | Some p ->
      Path.same p Predef.path_int || Path.same p Predef.path_bool
      || Path.same p Predef.path_char || Path.same p Predef.path_unit
  | None -> false

let is_unit_type ty =
  match type_path ty with
  | Some p -> Path.same p Predef.path_unit
  | None -> false

(* Types whose values are boxed when they cross a polymorphic boundary. *)
let is_boxed_scalar_type ty =
  match type_path ty with
  | Some p ->
      Path.same p Predef.path_float || Path.same p Predef.path_int32
      || Path.same p Predef.path_int64
      || Path.same p Predef.path_nativeint
  | None -> false

let binding_name (vb : Typedtree.value_binding) =
  match vb.Typedtree.vb_pat.Typedtree.pat_desc with
  | Typedtree.Tpat_var (_, { txt; _ }) -> Some txt
  | Typedtree.Tpat_alias (_, _, { txt; _ }) -> Some txt
  | _ -> None

(* Unwrap the outer curried [fun p1 -> fun p2 -> ...] chain of a
   definition, returning the innermost bodies (one per match case). *)
let rec fun_bodies e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      List.concat_map (fun c -> fun_bodies c.Typedtree.c_rhs) cases
  | _ -> [ e ]

let start_line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* ---------------------------------------------------------- collector *)

let emit col ~loc rule_id message =
  match Lint.find_rule rule_id with
  | None -> ()
  | Some r ->
      if Lint.rule_applies ~path:col.c_path rule_id then begin
        let pos = loc.Location.loc_start in
        col.c_findings <-
          {
            Lint.rule_id;
            severity = r.Lint.severity;
            file = col.c_path;
            line = pos.Lexing.pos_lnum;
            col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
            message;
          }
          :: col.c_findings
      end

let record_site col ~loc ~prim ~fn evidence =
  let pos = loc.Location.loc_start in
  col.c_sites <-
    {
      Lint.site_file = col.c_path;
      site_line = pos.Lexing.pos_lnum;
      site_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      site_prim = prim;
      site_fn = fn;
      site_evidence = evidence;
    }
    :: col.c_sites

(* -------------------------------------------------------------- index *)

let dls_get_path p = has_sub ~sub:"DLS.get" (Path.name p)

(* Does the definition read Domain.DLS directly in its own body (not
   under a nested closure)?  [Par.lane_scratch] itself returns the
   accessor as a nested closure and must not be indexed, or every
   [lane_scratch] call site would look like a scratch value. *)
let reads_dls_directly vb =
  let bodies = fun_bodies vb.Typedtree.vb_expr in
  let rec direct e =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_function _ -> false
    | Typedtree.Texp_apply (f, args) -> (
        (match ident_of f with Some (p, _) -> dls_get_path p | None -> direct f)
        || List.exists
             (function _, Some a -> direct a | _, None -> false)
             args)
    | Typedtree.Texp_let (_, vbs, body) ->
        List.exists (fun vb -> direct vb.Typedtree.vb_expr) vbs || direct body
    | Typedtree.Texp_sequence (a, b) -> direct a || direct b
    | Typedtree.Texp_ifthenelse (c, t, e') ->
        direct c || direct t
        || (match e' with Some e' -> direct e' | None -> false)
    | Typedtree.Texp_match (scrut, cases, _) ->
        direct scrut
        || List.exists (fun c -> direct c.Typedtree.c_rhs) cases
    | _ -> false
  in
  List.exists direct bodies

let lane_scratch_rhs vb =
  match app_parts vb.Typedtree.vb_expr with
  | Some (f, _) -> (
      match ident_of f with
      | Some (p, _) -> Path.last p = "lane_scratch"
      | None -> false)
  | None -> false

let raise_names = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]

let is_raise_expr e =
  match app_parts e with
  | Some (f, _) -> (
      match ident_of f with
      | Some (p, _) -> List.mem (Path.last p) raise_names
      | None -> false)
  | None -> (
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_assert _ -> true
      | _ -> false)

let contains_raise e = exists_expr is_raise_expr e

(* A validator: a unit-returning function whose body contains a raise —
   the Bitvec.check_same_len / Graph.check_vertex pattern.  A later call
   to one counts as bounds evidence for unsafe indexing. *)
let is_validator vb =
  match fun_bodies vb.Typedtree.vb_expr with
  | [] -> false
  | bodies ->
      (match vb.Typedtree.vb_expr.Typedtree.exp_desc with
      | Typedtree.Texp_function _ -> true
      | _ -> false)
      && List.for_all (fun b -> is_unit_type b.Typedtree.exp_type) bodies
      && List.exists contains_raise bodies

let build_index units =
  let ix =
    { ix_accessors = Hashtbl.create 16; ix_validators = Hashtbl.create 16 }
  in
  List.iter
    (fun u ->
      let it =
        {
          Tast_iterator.default_iterator with
          value_binding =
            (fun self vb ->
              (match binding_name vb with
              | Some name ->
                  if lane_scratch_rhs vb || reads_dls_directly vb then
                    Hashtbl.replace ix.ix_accessors name ();
                  if is_validator vb then Hashtbl.replace ix.ix_validators name ()
              | None -> ());
              Tast_iterator.default_iterator.value_binding self vb);
        }
      in
      it.Tast_iterator.structure it u.tu_str)
    units;
  ix

(* ----------------------------------------------------------- windows *)

let windows_of str =
  let tbl = Hashtbl.create 64 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          Lint.note_window tbl e.Typedtree.exp_loc;
          Tast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          Lint.note_window tbl vb.Typedtree.vb_loc;
          Tast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.Tast_iterator.structure it str;
  tbl

(* ------------------------------------------------------------ loading *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let normalize_path p =
  let p =
    if String.length p > 2 && String.sub p 0 2 = "./" then
      String.sub p 2 (String.length p - 2)
    else p
  in
  p

(* Generated sources live in dot-directories — .bcc_cli.eobjs holds the
   dune__exe wrappers; they are dune plumbing, not lintable sources. *)
let source_path_ok path =
  String.split_on_char '/' path
  |> List.for_all (fun c ->
         not (String.length c > 1 && c.[0] = '.' && c <> ".."))

let under_paths ~paths p =
  paths = []
  || List.exists
       (fun root ->
         let root = normalize_path root in
         p = root
         || String.length p > String.length root
            && String.sub p 0 (String.length root + 1) = root ^ "/")
       paths

let load_cmt file =
  match Cmt_format.read_cmt file with
  | exception exn -> Result.Error (Printexc.to_string exn)
  | infos -> (
      match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src ->
          let path = normalize_path src in
          let src_text =
            if Sys.file_exists path then Some (read_file path)
            else
              let alt = Filename.concat infos.Cmt_format.cmt_builddir path in
              if Sys.file_exists alt then Some (read_file alt) else None
          in
          Result.Ok (Some { tu_path = path; tu_src = src_text; tu_str = str })
      | _ -> Result.Ok None)

let rec collect_cmts acc path =
  if (not (Sys.file_exists path)) || Filename.basename path = ".git" then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry -> collect_cmts acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let type_error_finding ~file msg =
  {
    Lint.rule_id = "lint/type-error";
    severity = Lint.Error;
    file;
    line = 1;
    col = 0;
    message = msg;
  }

(* Load every .cmt under [dir] whose source lies under one of [paths]
   (all units when [paths] is empty), deduplicated by source path. *)
let load_dir ?(paths = []) dir =
  let files = collect_cmts [] dir |> List.sort_uniq String.compare in
  let seen = Hashtbl.create 64 in
  let units = ref [] in
  let problems = ref [] in
  List.iter
    (fun f ->
      match load_cmt f with
      | Result.Error msg ->
          problems :=
            type_error_finding ~file:f
              (Printf.sprintf "unreadable .cmt: %s" msg)
            :: !problems
      | Result.Ok None -> ()
      | Result.Ok (Some u) ->
          if
            source_path_ok u.tu_path
            && under_paths ~paths u.tu_path
            && not (Hashtbl.mem seen u.tu_path)
          then begin
            Hashtbl.replace seen u.tu_path ();
            units := u :: !units
          end)
    files;
  let units =
    List.sort (fun a b -> String.compare a.tu_path b.tu_path) !units
  in
  (units, List.rev !problems)

(* In-process typechecking for fixtures and tests: no files written, no
   dune round-trip.  The initial environment is Stdlib-only, which the
   rule-family fixtures are written against. *)
let typecheck_string ~path src =
  ignore (Warnings.parse_options false "-a");
  Clflags.dont_write_files := true;
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match
    let pstr = Parse.implementation lexbuf in
    Typemod.type_structure env pstr
  with
  | tstr, _, _, _, _ ->
      Result.Ok { tu_path = path; tu_src = Some src; tu_str = tstr }
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Result.Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Result.Error (Printexc.to_string exn))

(* ------------------------------------------------------------ driving *)

(* Give pragma-suppressed unsafe-index findings their pragma reason as
   inventory evidence: the site stays in LINT.json, marked justified. *)
let attach_pragma_evidence sites sups =
  List.map
    (fun (s : Lint.site) ->
      match s.Lint.site_evidence with
      | Lint.No_evidence -> (
          let covering =
            List.find_opt
              (fun (sup : Lint.suppression) ->
                sup.Lint.sup_rule = "kern/unsafe-index"
                && sup.Lint.sup_file = s.Lint.site_file
                && sup.Lint.sup_line = s.Lint.site_line)
              sups
          in
          match covering with
          | Some sup -> { s with Lint.site_evidence = Lint.Pragma sup.Lint.sup_reason }
          | None -> s)
      | _ -> s)
    sites

let run_unit ~index ~rules u =
  let pragmas, noallocs, _meta =
    (* meta findings (unknown rule / malformed pragma) are the source
       pass's to report; re-reporting them here would double them up. *)
    match u.tu_src with
    | Some src -> Lint.extract_pragmas ~path:u.tu_path src
    | None -> ([], [], [])
  in
  let annot_lines =
    List.map (fun (p : Lint.pragma) -> p.Lint.p_end_line) pragmas
    @ List.map (fun (m : Lint.noalloc_mark) -> m.Lint.na_line) noallocs
  in
  (* A mark above an allow pragma still attaches to the binding below
     the annotation stack. *)
  let noallocs =
    List.map
      (fun (m : Lint.noalloc_mark) ->
        { Lint.na_line = Lint.chain_anchor ~annot_lines m.Lint.na_line })
      noallocs
  in
  let col = { c_path = u.tu_path; c_findings = []; c_sites = [] } in
  List.iter (fun rule -> rule index u ~noalloc:noallocs col) rules;
  let findings = Lint.sort_findings col.c_findings in
  let windows = windows_of u.tu_str in
  let active, sup =
    Lint.apply_pragmas ~path:u.tu_path
      ~window_end:(fun a ->
        Lint.window_end windows (Lint.chain_anchor ~annot_lines a))
      pragmas findings
  in
  {
    Lint.findings = active;
    suppressions = sup;
    sites = attach_pragma_evidence (Lint.sort_sites col.c_sites) sup;
    files_scanned = 1;
  }

let run_units ~rules units =
  let index = build_index units in
  List.fold_left
    (fun acc u -> Lint.merge acc (run_unit ~index ~rules u))
    Lint.empty units

(* A scanned source with no loaded unit was never type-checked into
   [dir] (an executable built natively writes no .cmt), so the typed
   rules would pass it unseen: report it instead. *)
let missing_units ~paths ~dir units =
  Lint.source_files paths
  |> List.filter_map (fun file ->
         if List.exists (fun u -> u.tu_path = normalize_path file) units then None
         else
           Some
             (type_error_finding ~file
                (Printf.sprintf
                   "no .cmt under %s: the typed rules did not check this file \
                    (build @check first)"
                   dir)))

(* One-call entry point for the CLI: discover, load, index, run. *)
let lint_cmt_dir ~rules ?(paths = []) dir =
  let units, problems = load_dir ~paths dir in
  let r = run_units ~rules units in
  let problems = problems @ missing_units ~paths ~dir units in
  { r with Lint.findings = Lint.sort_findings (problems @ r.Lint.findings) }
