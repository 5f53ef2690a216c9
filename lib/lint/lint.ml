(* Stage 1 of the two-stage determinism & domain-safety linter: the
   source pass, plus the shared machinery (rule catalogue, findings,
   pragmas, suppression windows, reports) that the typed pass
   (typed_pass.ml, rules_kern.ml, rules_par.ml) builds on.

   Each .ml file is parsed with compiler-libs (Pparse / Parse) and walked
   with an Ast_iterator; rule checks are purely syntactic (no typing), so
   they are conservative by design and any false positive is silenced at
   the site with a justified pragma comment:

     (* bcc-lint: allow <rule>[, <rule>]* — <reason> *)

   Pragmas are extracted by a small comment scanner over the raw source
   (comments never reach the parsetree); a pragma suppresses findings of
   the named rules on the line it ends on, on the following line, and —
   when an expression or value binding starts on one of those two lines —
   on every line of that expression, so one pragma above a multi-line
   function covers the whole function body. *)

type severity = Error | Warning

type rule = { id : string; severity : severity; summary : string }

let catalogue =
  [
    {
      id = "det/ambient-rng";
      severity = Error;
      summary =
        "Random.* outside lib/prng: ambient RNG bypasses seeded Prng streams";
    };
    {
      id = "det/wall-clock";
      severity = Error;
      summary =
        "Sys.time/Unix.gettimeofday/Unix.time or an external clock \
         primitive outside lib/obs/prof.ml: Prof owns the one audited \
         clock; wall-clock must never reach experiment output";
    };
    {
      id = "det/poly-compare";
      severity = Error;
      summary =
        "bare compare / Stdlib.compare / Hashtbl.hash: polymorphic \
         comparison is fragile on structural data";
    };
    {
      id = "det/float-format";
      severity = Warning;
      summary =
        (* bcc-lint: allow det/float-format — the rule's own description names the conversions it flags *)
        "string_of_float or %f/%g/%e formatting outside Artifact's \
         canonical shortest-round-trip printer";
    };
    {
      id = "det/hashtbl-order";
      severity = Warning;
      summary =
        "Hashtbl.iter/fold: iteration order can leak into artifacts";
    };
    {
      id = "par/global-mutable";
      severity = Error;
      summary =
        "top-level mutable binding in a library reachable from \
         Bcc_par.map_trials without a pragma naming the guard";
    };
    {
      id = "kern/unsafe-index";
      severity = Error;
      summary =
        "unsafe_get/unsafe_set/Bigarray-unsafe call site with no \
         recognizable bounds evidence (length-bounded loop, dominating \
         check, validator call) in the enclosing function";
    };
    {
      id = "perf/noalloc";
      severity = Error;
      summary =
        "boxing allocation (tuple/record/closure/partial application/\
         polymorphic comparison) inside a function marked with a \
         '(* bcc-lint: noalloc *)' annotation";
    };
    {
      id = "par/dls-escape";
      severity = Error;
      summary =
        "Par.lane_scratch / Domain.DLS value escapes its lane: bound at \
         module scope, stored into a ref/array/table, or captured by a \
         closure that outlives the call";
    };
    {
      id = "par/dls-zero";
      severity = Warning;
      summary =
        "lane-scratch buffer is read without a zeroing write in the \
         same function to re-establish its cross-call invariant";
    };
    {
      id = "lint/type-error";
      severity = Error;
      summary =
        "compilation unit failed to typecheck, or has no readable .cmt; \
         typed rules did not run on it";
    };
    {
      id = "lint/unknown-rule";
      severity = Error;
      summary = "allow-pragma names a rule that is not in the catalogue";
    };
    {
      id = "lint/malformed-pragma";
      severity = Error;
      summary =
        "bcc-lint comment that does not parse as 'allow <rules> — <reason>'";
    };
    {
      id = "lint/parse-error";
      severity = Error;
      summary = "file does not parse as an OCaml implementation";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) catalogue

type finding = {
  rule_id : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

type suppression = {
  sup_rule : string;
  sup_file : string;
  sup_line : int;
  sup_reason : string;
}

(* Why an unsafe indexing site is believed in-bounds.  Emitted into the
   LINT.json inventory by the typed pass (rules_kern.ml). *)
type evidence =
  | Loop_bound of string  (** enclosing for-loop bounded by a length *)
  | Guard of string  (** dominated by a validator call / precondition raise *)
  | Branch of string  (** enclosing branch condition mentions a length *)
  | Pragma of string  (** allow-pragma; the string is its reason *)
  | No_evidence

type site = {
  site_file : string;
  site_line : int;
  site_col : int;
  site_prim : string;  (** primitive or value name, e.g. "%array_unsafe_get" *)
  site_fn : string;  (** nearest enclosing binding name, "<toplevel>" if none *)
  site_evidence : evidence;
}

type report = {
  findings : finding list;
  suppressions : suppression list;
  sites : site list;
  files_scanned : int;
}

(* ------------------------------------------------------- rule scoping *)

let path_components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

(* [under ~dir ~sub path]: path contains the components dir/sub. *)
let under ~dir ~sub path =
  let rec go = function
    | a :: (b :: _ as rest) -> (a = dir && b = sub) || go rest
    | _ -> false
  in
  go (path_components path)

let in_lib path =
  List.exists (fun c -> c = "lib") (path_components path)

let rule_applies ~path id =
  match id with
  | "det/ambient-rng" -> not (under ~dir:"lib" ~sub:"prng" path)
  | "det/wall-clock" ->
      not (under ~dir:"lib" ~sub:"obs" path && Filename.basename path = "prof.ml")
  | "det/float-format" ->
      not (under ~dir:"lib" ~sub:"obs" path && Filename.basename path = "artifact.ml")
  | "par/global-mutable" -> in_lib path
  | _ -> true

(* ------------------------------------------------------------ pragmas *)

type pragma = {
  p_end_line : int; (* line the comment closes on; suppression anchor *)
  p_rules : string list;
  p_reason : string;
}

(* A '(* bcc-lint: noalloc *)' annotation: the binding starting on the
   line the comment ends on (or the next line) is checked by the typed
   pass for boxing allocations (rules_kern.ml). *)
type noalloc_mark = { na_line : int }

(* Extract (start_line, end_line, body) for every comment.  The scanner
   tracks strings and char literals in code, and nested comments (with
   their embedded strings) inside comments — enough fidelity for real
   OCaml sources, and pragmas are single-line comments in practice. *)
let scan_comments src =
  let n = String.length src in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  let starts_comment () = !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' in
  let ends_comment () = !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' in
  let skip_string () =
    (* at opening quote *)
    bump src.[!i];
    incr i;
    let fin = ref false in
    while (not !fin) && !i < n do
      (match src.[!i] with
      | '\\' ->
          bump src.[!i];
          incr i;
          if !i < n then bump src.[!i]
      | '"' -> fin := true
      | c -> bump c);
      incr i
    done
  in
  while !i < n do
    if starts_comment () then begin
      let start_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if starts_comment () then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if ends_comment () then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else if src.[!i] = '"' then begin
          let s0 = !i in
          skip_string ();
          Buffer.add_string buf (String.sub src s0 (!i - s0))
        end
        else begin
          bump src.[!i];
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      comments := (start_line, !line, Buffer.contents buf) :: !comments
    end
    else if src.[!i] = '"' then skip_string ()
    else if
      (* char literals: 'x', '\n', '\123', '\xff'; distinguish from the
         type-variable / label quote by looking for a closing quote. *)
      src.[!i] = '\''
      && ((!i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\')
         || (!i + 1 < n && src.[!i + 1] = '\\'))
    then
      if !i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\' then i := !i + 3
      else begin
        (* escaped char literal: scan to the closing quote, bounded *)
        let j = ref (!i + 2) in
        while !j < n && !j < !i + 6 && src.[!j] <> '\'' do
          incr j
        done;
        i := !j + 1
      end
    else begin
      bump src.[!i];
      incr i
    end
  done;
  List.rev !comments

let strip s =
  String.trim s

(* Split [s] at the first reason separator: an em-dash, "--", or a lone
   "-" surrounded by spaces.  Returns (rules_part, reason) or None. *)
let split_reason s =
  let n = String.length s in
  let emdash = "\xe2\x80\x94" in
  let rec go i =
    if i >= n then None
    else if i + 2 < n && String.sub s i 3 = emdash then
      Some (String.sub s 0 i, String.sub s (i + 3) (n - i - 3))
    else if s.[i] = '-' && i > 0 && s.[i - 1] = ' ' then begin
      let j = ref i in
      while !j < n && s.[!j] = '-' do
        incr j
      done;
      if !j < n && s.[!j] = ' ' then
        Some (String.sub s 0 i, String.sub s !j (n - !j))
      else go (i + 1)
    end
    else go (i + 1)
  in
  go 0

type parsed_pragma = Allow of pragma | Noalloc of noalloc_mark

(* Parse the pragma body after "bcc-lint:".  On success, a pragma; on
   failure, a finding-producing diagnosis. *)
let parse_pragma ~end_line body =
  let body = strip body in
  if body = "noalloc" then Result.Ok (Noalloc { na_line = end_line })
  else
    match String.index_opt body ' ' with
    | Some sp when String.sub body 0 sp = "noalloc" ->
        (* "noalloc — reason" is tolerated; the reason is commentary. *)
        Result.Ok (Noalloc { na_line = end_line })
    | Some sp when String.sub body 0 sp = "allow" ->
      let rest = strip (String.sub body sp (String.length body - sp)) in
      (match split_reason rest with
      | None -> Result.Error "missing '— <reason>' after the rule list"
      | Some (rules_part, reason) ->
          let reason = strip reason in
          let rules =
            String.split_on_char ',' rules_part
            |> List.concat_map (String.split_on_char ' ')
            |> List.map strip
            |> List.filter (fun r -> r <> "")
          in
          if rules = [] then Result.Error "empty rule list"
          else if reason = "" then Result.Error "empty reason"
          else
            Result.Ok
              (Allow { p_end_line = end_line; p_rules = rules; p_reason = reason }))
    | _ ->
        Result.Error
          "expected 'allow <rule>[, <rule>]* — <reason>' or 'noalloc'"

let pragma_prefix = "bcc-lint:"

let extract_pragmas ~path src =
  let pragmas = ref [] in
  let noallocs = ref [] in
  let meta_findings = ref [] in
  List.iter
    (fun (start_line, end_line, body) ->
      let body = strip body in
      if String.length body >= String.length pragma_prefix
         && String.sub body 0 (String.length pragma_prefix) = pragma_prefix
      then begin
        let rest =
          String.sub body (String.length pragma_prefix)
            (String.length body - String.length pragma_prefix)
        in
        match parse_pragma ~end_line rest with
        | Result.Ok (Noalloc m) -> noallocs := m :: !noallocs
        | Result.Ok (Allow p) ->
            List.iter
              (fun r ->
                if find_rule r = None then
                  meta_findings :=
                    {
                      rule_id = "lint/unknown-rule";
                      severity = Error;
                      file = path;
                      line = start_line;
                      col = 0;
                      message =
                        Printf.sprintf
                          "pragma allows unknown rule %S (known: %s)" r
                          (String.concat ", "
                             (List.map (fun r -> r.id) catalogue));
                    }
                    :: !meta_findings)
              p.p_rules;
            if List.for_all (fun r -> find_rule r <> None) p.p_rules then
              pragmas := p :: !pragmas
        | Result.Error why ->
            meta_findings :=
              {
                rule_id = "lint/malformed-pragma";
                severity = Error;
                file = path;
                line = start_line;
                col = 0;
                message = Printf.sprintf "malformed bcc-lint pragma: %s" why;
              }
              :: !meta_findings
      end)
    (scan_comments src);
  (List.rev !pragmas, List.rev !noallocs, List.rev !meta_findings)

(* ----------------------------------------------------------- AST walk *)

let head_of_longident lid =
  let rec go = function
    | Longident.Lident s -> s
    | Longident.Ldot (l, _) -> go l
    | Longident.Lapply (l, _) -> go l
  in
  go lid

(* Does a format-ish string contain a float conversion (%f %g %e and
   uppercase variants, with optional flags/width/precision)?  "%%" is an
   escaped percent, not a conversion. *)
let has_float_conversion s =
  let n = String.length s in
  let rec go i =
    if i >= n - 1 then false
    else if s.[i] <> '%' then go (i + 1)
    else begin
      let j = ref (i + 1) in
      if !j < n && s.[!j] = '%' then go (!j + 1)
      else begin
        while
          !j < n
          && (match s.[!j] with
             | '-' | '+' | ' ' | '#' | '0' .. '9' | '*' | '.' -> true
             | _ -> false)
        do
          incr j
        done;
        if !j < n then
          match s.[!j] with
          | 'f' | 'g' | 'e' | 'F' | 'G' | 'E' | 'h' | 'H' -> true
          | _ -> go (!j + 1)
        else false
      end
    end
  in
  go 0

let rec pattern_binds_name name p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> txt = name
  | Parsetree.Ppat_alias (p, { txt; _ }) -> txt = name || pattern_binds_name name p
  | Parsetree.Ppat_constraint (p, _) -> pattern_binds_name name p
  | Parsetree.Ppat_tuple ps -> List.exists (pattern_binds_name name) ps
  | _ -> false

(* The module defines its own [compare]: bare [compare] then refers to
   the local monomorphic one, not Stdlib's polymorphic compare. *)
let defines_local_compare structure =
  List.exists
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.exists
            (fun vb -> pattern_binds_name "compare" vb.Parsetree.pvb_pat)
            vbs
      | _ -> false)
    structure

(* What kind of mutable value does this top-level RHS construct, if any? *)
let rec mutable_constructor e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) -> mutable_constructor e
  | Parsetree.Pexp_array _ -> Some "array literal"
  | Parsetree.Pexp_apply (f, _) -> (
      match f.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> (
          match txt with
          | Longident.Lident "ref" -> Some "ref"
          | Longident.Ldot (Longident.Lident "Hashtbl", "create") ->
              Some "Hashtbl.create"
          | Longident.Ldot
              ( Longident.Lident "Array",
                ("make" | "create" | "init" | "make_matrix" | "create_float") )
            ->
              Some "Array allocation"
          | Longident.Ldot (Longident.Lident "Bytes", ("make" | "create")) ->
              Some "Bytes allocation"
          | Longident.Ldot (Longident.Lident "Buffer", "create") ->
              Some "Buffer.create"
          | Longident.Ldot (Longident.Lident "Queue", "create")
          | Longident.Ldot (Longident.Lident "Stack", "create") ->
              Some "mutable container"
          | _ -> None)
      | _ -> None)
  | _ -> None

let rec binding_name p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> txt
  | Parsetree.Ppat_constraint (p, _) -> binding_name p
  | _ -> "_"

type ctx = {
  c_path : string;
  mutable c_found : finding list;
  c_local_compare : bool;
}

let add ctx ~loc rule_id message =
  if rule_applies ~path:ctx.c_path rule_id then begin
    let r =
      match find_rule rule_id with
      | Some r -> r
      | None -> assert false
    in
    let pos = loc.Location.loc_start in
    ctx.c_found <-
      {
        rule_id;
        severity = r.severity;
        file = ctx.c_path;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        message;
      }
      :: ctx.c_found
  end

let check_ident ctx ~loc lid =
  (match head_of_longident lid with
  | "Random" ->
      add ctx ~loc "det/ambient-rng"
        "ambient Random.* call; all randomness must flow through Prng \
         (lib/prng) so runs are seed-reproducible"
  | _ -> ());
  match lid with
  | Longident.Ldot (Longident.Lident "Sys", "time")
  | Longident.Ldot (Longident.Lident "Unix", "gettimeofday")
  | Longident.Ldot (Longident.Lident "Unix", "time") ->
      add ctx ~loc "det/wall-clock"
        "wall-clock read; timing belongs to Prof (Prof.time / Prof.span), \
         never to experiment output"
  | Longident.Lident "compare" when not ctx.c_local_compare ->
      add ctx ~loc "det/poly-compare"
        "bare polymorphic [compare]; use a monomorphic comparison \
         (Int.compare, String.compare, a per-type compare, ...)"
  | Longident.Ldot (Longident.Lident "Stdlib", "compare") ->
      add ctx ~loc "det/poly-compare"
        "Stdlib.compare is polymorphic; use a monomorphic comparison for \
         deterministic, total ordering on structural data"
  | Longident.Ldot (Longident.Lident "Hashtbl", "hash") ->
      add ctx ~loc "det/poly-compare"
        "Hashtbl.hash is polymorphic structural hashing; hash explicitly \
         from the fields instead"
  | Longident.Lident "string_of_float" ->
      add ctx ~loc "det/float-format"
        "string_of_float is not the canonical float printer; go through \
         Artifact's shortest-round-trip representation"
  | Longident.Ldot (Longident.Lident "Hashtbl", (("iter" | "fold") as op)) ->
      add ctx ~loc "det/hashtbl-order"
        (Printf.sprintf
           "Hashtbl.%s iterates in table order, which can leak into \
            artifacts; sort the bindings or justify with a pragma"
           op)
  | _ -> ()

let check_expr ctx e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; loc } -> check_ident ctx ~loc txt
  | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, loc, _)) ->
      if has_float_conversion s then
        add ctx ~loc "det/float-format"
          (* bcc-lint: allow det/float-format — the diagnostic itself names the conversions it flags *)
          "format string with a %f/%g/%e float conversion; artifact bytes \
           must go through Artifact's canonical printer"
  | _ -> ()

let check_structure_item ctx item =
  match item.Parsetree.pstr_desc with
  | Parsetree.Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match mutable_constructor vb.Parsetree.pvb_expr with
          | Some kind ->
              add ctx ~loc:vb.Parsetree.pvb_loc "par/global-mutable"
                (Printf.sprintf
                   "top-level mutable binding %S (%s); trials fanned out by \
                    Bcc_par can race on it — guard it and name the guard in \
                    an allow-pragma"
                   (binding_name vb.Parsetree.pvb_pat)
                   kind)
          | None -> ())
        vbs
  | Parsetree.Pstr_primitive vd ->
      (* An [external] binding a C primitive whose name mentions "clock"
         is a second way to smuggle a timer past the Ldot checks above;
         the only sanctioned one is Prof's monotonic stub. *)
      let mentions_clock s =
        let n = String.length s and m = String.length "clock" in
        let rec go i =
          i + m <= n
          && (String.lowercase_ascii (String.sub s i m) = "clock" || go (i + 1))
        in
        go 0
      in
      if List.exists mentions_clock vd.Parsetree.pval_prim then
        add ctx ~loc:vd.Parsetree.pval_loc "det/wall-clock"
          (Printf.sprintf
             "external %S binds a clock primitive; the one audited clock \
              lives in lib/obs/prof.ml (use Prof.now_ns / Prof.time)"
             vd.Parsetree.pval_name.Location.txt)
  | _ -> ()

let make_iterator ctx =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun self e ->
        check_expr ctx e;
        Ast_iterator.default_iterator.expr self e);
    structure_item =
      (fun self item ->
        check_structure_item ctx item;
        Ast_iterator.default_iterator.structure_item self item);
  }

(* ------------------------------------------- suppression windows *)

(* Map each start line to the furthest end line of any expression or
   value binding starting on it.  A pragma anchored at line L covers
   [L, window_end L]: at least L and L+1 (the historical window), and
   when an expression or binding starts on L or L+1, every line of that
   expression — so one pragma above a multi-line function definition
   suppresses the named rules through the whole function. *)
let note_window tbl (loc : Location.t) =
  if not loc.Location.loc_ghost then begin
    let s = loc.Location.loc_start.Lexing.pos_lnum in
    let e = loc.Location.loc_end.Lexing.pos_lnum in
    if e > s then
      match Hashtbl.find_opt tbl s with
      | Some e' when e' >= e -> ()
      | _ -> Hashtbl.replace tbl s e
  end

let expr_windows structure =
  let tbl = Hashtbl.create 64 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          note_window tbl e.Parsetree.pexp_loc;
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          note_window tbl vb.Parsetree.pvb_loc;
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.Ast_iterator.structure it structure;
  tbl

let window_end tbl anchor =
  let span l = match Hashtbl.find_opt tbl l with Some e -> e | None -> l in
  max (anchor + 1) (max (span anchor) (span (anchor + 1)))

(* Stacked annotations chain: when the line directly below an annotation
   is another bcc-lint comment (a second pragma, or a noalloc mark), the
   effective anchor advances past it, so

     (* bcc-lint: allow kern/unsafe-index — ... *)
     (* bcc-lint: noalloc *)
     let f x = ...

   still lets the allow pragma cover f's whole body and the noalloc mark
   still attach to f. *)
let chain_anchor ~annot_lines anchor =
  let rec adv l = if List.mem (l + 1) annot_lines then adv (l + 1) else l in
  adv anchor

(* ------------------------------------------------------------ driving *)

let apply_pragmas ~path ~window_end pragmas findings =
  let matching f =
    List.find_opt
      (fun p ->
        List.mem f.rule_id p.p_rules
        && f.line >= p.p_end_line
        && f.line <= window_end p.p_end_line)
      pragmas
  in
  List.fold_left
    (fun (active, sup) f ->
      match matching f with
      | Some p ->
          ( active,
            {
              sup_rule = f.rule_id;
              sup_file = path;
              sup_line = f.line;
              sup_reason = p.p_reason;
            }
            :: sup )
      | None -> (f :: active, sup))
    ([], []) findings
  |> fun (active, sup) -> (List.rev active, List.rev sup)

let sort_sites ss =
  List.sort
    (fun a b ->
      let c = String.compare a.site_file b.site_file in
      if c <> 0 then c
      else
        let c = Int.compare a.site_line b.site_line in
        if c <> 0 then c else Int.compare a.site_col b.site_col)
    ss

(* The census key of an unsafe site: (file, enclosing binding,
   primitive, ordinal), the ordinal counting that binding's sites of
   that primitive in source order.  Unlike a line number it survives
   edits elsewhere in the file, yet it still changes when a site is
   added, removed, or moved to another binding. *)
let census_sites ss =
  let group_compare a b =
    let c = String.compare a.site_file b.site_file in
    if c <> 0 then c
    else
      let c = String.compare a.site_fn b.site_fn in
      if c <> 0 then c else String.compare a.site_prim b.site_prim
  in
  (* Stable sort over source order: each group stays in source order. *)
  let grouped = List.stable_sort group_compare (sort_sites ss) in
  let _, numbered =
    List.fold_left
      (fun (prev, acc) s ->
        let ord =
          match prev with
          | Some (p, k) when group_compare p s = 0 -> k + 1
          | _ -> 0
        in
        (Some (s, ord), (s, ord) :: acc))
      (None, []) grouped
  in
  List.rev numbered

let sort_findings fs =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = Int.compare a.col b.col in
          if c <> 0 then c else String.compare a.rule_id b.rule_id)
    fs

let lint_structure ~path ~src structure =
  let pragmas, noallocs, meta = extract_pragmas ~path src in
  let ctx =
    {
      c_path = path;
      c_found = [];
      c_local_compare = defines_local_compare structure;
    }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it structure;
  let findings = sort_findings (meta @ ctx.c_found) in
  let windows = expr_windows structure in
  let annot_lines =
    List.map (fun p -> p.p_end_line) pragmas
    @ List.map (fun (m : noalloc_mark) -> m.na_line) noallocs
  in
  let active, sup =
    apply_pragmas ~path
      ~window_end:(fun a -> window_end windows (chain_anchor ~annot_lines a))
      pragmas findings
  in
  { findings = active; suppressions = sup; sites = []; files_scanned = 1 }

let parse_error_report ~path msg =
  {
    findings =
      [
        {
          rule_id = "lint/parse-error";
          severity = Error;
          file = path;
          line = 1;
          col = 0;
          message = msg;
        };
      ];
    suppressions = [];
    sites = [];
    files_scanned = 1;
  }

let lint_string ~path src =
  match
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf path;
    Parse.implementation lexbuf
  with
  | structure -> lint_structure ~path ~src structure
  | exception exn ->
      parse_error_report ~path
        (Printf.sprintf "does not parse: %s" (Printexc.to_string exn))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let lint_file path =
  let src = read_file path in
  match Pparse.parse_implementation ~tool_name:"bcc_lint" path with
  | structure -> lint_structure ~path ~src structure
  | exception exn ->
      parse_error_report ~path
        (Printf.sprintf "does not parse: %s" (Printexc.to_string exn))

let skip_dir name =
  name = "_build" || name = "_artifacts" || name = ".git"
  || name = "_opam" || name = "node_modules"

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if skip_dir entry then acc
           else collect_ml acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let merge a b =
  {
    findings = a.findings @ b.findings;
    suppressions = a.suppressions @ b.suppressions;
    sites = a.sites @ b.sites;
    files_scanned = a.files_scanned + b.files_scanned;
  }

let empty = { findings = []; suppressions = []; sites = []; files_scanned = 0 }

let source_files paths =
  List.fold_left collect_ml [] paths |> List.sort_uniq String.compare

let lint_paths paths =
  List.fold_left (fun acc file -> merge acc (lint_file file)) empty
    (source_files paths)

let exit_code r = if r.findings = [] then 0 else 1

(* ------------------------------------------------------------- output *)

let severity_to_string (s : severity) =
  match s with Error -> "error" | Warning -> "warning"

let finding_to_json f =
  Artifact.Obj
    [
      ("rule", Artifact.String f.rule_id);
      ("severity", Artifact.String (severity_to_string f.severity));
      ("file", Artifact.String f.file);
      ("line", Artifact.Int f.line);
      ("col", Artifact.Int f.col);
      ("message", Artifact.String f.message);
    ]

(* Suppressions and sites carry no line numbers in the JSON report, so
   the committed inventory does not churn when code above them moves;
   the console report still prints file:line:col for every finding. *)
let suppression_to_json s =
  Artifact.Obj
    [
      ("rule", Artifact.String s.sup_rule);
      ("file", Artifact.String s.sup_file);
      ("reason", Artifact.String s.sup_reason);
    ]

let count sev fs =
  List.length (List.filter (fun (f : finding) -> f.severity = sev) fs)

let evidence_to_json = function
  | Loop_bound d ->
      Artifact.Obj
        [ ("kind", Artifact.String "loop-bound"); ("detail", Artifact.String d) ]
  | Guard d ->
      Artifact.Obj
        [ ("kind", Artifact.String "guard"); ("detail", Artifact.String d) ]
  | Branch d ->
      Artifact.Obj
        [ ("kind", Artifact.String "branch"); ("detail", Artifact.String d) ]
  | Pragma reason ->
      Artifact.Obj
        [
          ("kind", Artifact.String "pragma"); ("detail", Artifact.String reason);
        ]
  | No_evidence -> Artifact.Obj [ ("kind", Artifact.String "none") ]

let site_to_json (s, ordinal) =
  Artifact.Obj
    [
      ("file", Artifact.String s.site_file);
      ("function", Artifact.String s.site_fn);
      ("primitive", Artifact.String s.site_prim);
      ("ordinal", Artifact.Int ordinal);
      ("evidence", evidence_to_json s.site_evidence);
    ]

let report_to_json ~paths r =
  Artifact.make ~kind:"lint" ~id:"bcc_lint"
    ~params:
      [ ("paths", Artifact.List (List.map (fun p -> Artifact.String p) paths)) ]
    (Artifact.Obj
       [
         ("files_scanned", Artifact.Int r.files_scanned);
         ( "summary",
           Artifact.Obj
             [
               ("errors", Artifact.Int (count Error r.findings));
               ("warnings", Artifact.Int (count Warning r.findings));
               ("suppressed", Artifact.Int (List.length r.suppressions));
               ("unsafe_sites", Artifact.Int (List.length r.sites));
             ] );
         ("findings", Artifact.List (List.map finding_to_json r.findings));
         ( "suppressions",
           Artifact.List (List.map suppression_to_json r.suppressions) );
         ( "unsafe_sites",
           Artifact.List (List.map site_to_json (census_sites r.sites)) );
       ])

let pp_report fmt r =
  List.iter
    (fun f ->
      Format.fprintf fmt "%s:%d:%d: %s %s: %s@." f.file f.line f.col
        (severity_to_string f.severity)
        f.rule_id f.message)
    r.findings;
  Format.fprintf fmt "bcc_lint: %d file(s), %d finding(s) (%d error(s), %d \
                      warning(s)), %d suppressed, %d unsafe site(s) \
                      inventoried@."
    r.files_scanned
    (List.length r.findings)
    (count Error r.findings)
    (count Warning r.findings)
    (List.length r.suppressions)
    (List.length r.sites)
