(* Typed rules for the unsafe kernels: kern/unsafe-index (every unsafe
   indexing call must carry recognizable bounds evidence or a justified
   pragma, and lands in the LINT.json inventory either way) and
   perf/noalloc (functions marked '(* bcc-lint: noalloc *)' must not
   box on the typed tree).

   Evidence detection is deliberately heuristic — it recognises the
   three shapes the repo's kernels actually use (length-bounded loops,
   dominating precondition raises / validator calls, length-testing
   branches) and asks for a pragma with a human-written justification
   for anything else.  A false positive costs one comment line; a false
   negative here is caught nowhere else before the Gc/oracle tests. *)

(* ------------------------------------------------- kern/unsafe-index *)

(* An unsafe call site: the head is a primitive whose name mentions
   "unsafe" (%array_unsafe_get, %caml_ba_unsafe_ref_1, ...) or a value
   whose own name does (Bitvec.unsafe_set_bit, Digraph.unsafe_add_edge). *)
let unsafe_head f =
  match Typed_pass.ident_of f with
  | Some (p, vd) -> (
      match Typed_pass.prim_name vd with
      | Some prim when Typed_pass.has_sub ~sub:"unsafe" prim -> Some prim
      | _ ->
          if Typed_pass.has_sub ~sub:"unsafe" (Path.last p) then
            Some (Path.name p)
          else None)
  | None -> None

let length_names =
  [ "length"; "dim"; "dim1"; "word_length"; "i64_length"; "int_length" ]

let length_prims =
  [ "%array_length"; "%bytes_length"; "%string_length"; "%caml_ba_dim_1" ]

(* Does [e] mention a length/dimension read — directly, or through a
   local variable bound from one ([let n = Array.length a in ...])? *)
let mentions_length ~lenvars e =
  let found = ref None in
  Typed_pass.iter_exprs
    (fun e ->
      if !found = None then
        match Typed_pass.ident_of e with
        | Some (p, vd) -> (
            let last = Path.last p in
            match Typed_pass.prim_name vd with
            | Some prim when List.mem prim length_prims -> found := Some last
            | _ ->
                if List.mem last length_names then found := Some (Path.name p)
                else if Hashtbl.mem lenvars last then found := Some last)
        | None -> ())
    e;
  !found

type ancestor =
  | For_bound of Typedtree.expression * Typedtree.expression
  | Cond of Typedtree.expression

let check_unsafe_index index u col =
  let fn_stack = ref [] in
  let ancestors = ref [] in
  (* Per top-level item: validator calls / precondition raises seen so
     far (they dominate everything visited after them), and local
     variables bound from length reads. *)
  let guards = ref [] in
  let lenvars = Hashtbl.create 8 in
  let is_guard_if e =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ifthenelse (_, t, els) ->
        Typed_pass.contains_raise t
        || (match els with
           | Some els -> Typed_pass.contains_raise els
           | None -> false)
    | _ -> false
  in
  let validator_call e =
    match Typed_pass.app_parts e with
    | Some (f, _) -> (
        match Typed_pass.ident_of f with
        | Some (p, vd) when Typed_pass.prim_name vd = None ->
            let last = Path.last p in
            if
              Hashtbl.mem index.Typed_pass.ix_validators last
              || String.length last > 6 && String.sub last 0 6 = "check_"
            then Some last
            else None
        | _ -> None)
    | None -> None
  in
  let evidence_at () =
    let rec from_ancestors = function
      | [] -> None
      | For_bound (lo, hi) :: rest -> (
          match mentions_length ~lenvars hi with
          | Some name -> Some (Lint.Loop_bound name)
          | None -> (
              match mentions_length ~lenvars lo with
              | Some name -> Some (Lint.Loop_bound name)
              | None -> from_ancestors rest))
      | Cond c :: rest -> (
          match mentions_length ~lenvars c with
          | Some name -> Some (Lint.Branch name)
          | None -> from_ancestors rest)
    in
    match from_ancestors !ancestors with
    | Some ev -> Some ev
    | None -> (
        match !guards with g :: _ -> Some (Lint.Guard g) | [] -> None)
  in
  let enclosing_fn () =
    match !fn_stack with name :: _ -> name | [] -> "<toplevel>"
  in
  let visit_site ~loc prim =
    match evidence_at () with
    | Some ev -> Typed_pass.record_site col ~loc ~prim ~fn:(enclosing_fn ()) ev
    | None ->
        Typed_pass.record_site col ~loc ~prim ~fn:(enclosing_fn ())
          Lint.No_evidence;
        Typed_pass.emit col ~loc "kern/unsafe-index"
          (Printf.sprintf
             "unsafe indexing call %s in %s has no recognizable bounds \
              evidence (length-bounded loop, dominating check, validator \
              call); prove it or justify with a pragma"
             prim (enclosing_fn ()))
  in
  let expr self e =
    (* Record dominators before descending: anything visited later in
       this top-level item is dominated by them in source order. *)
    (if is_guard_if e then guards := "precondition raise" :: !guards);
    (match validator_call e with
    | Some name -> guards := name :: !guards
    | None -> ());
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match Typed_pass.binding_name vb with
            | Some name -> (
                match mentions_length ~lenvars vb.Typedtree.vb_expr with
                | Some _ -> Hashtbl.replace lenvars name ()
                | None -> ())
            | None -> ())
          vbs
    | _ -> ());
    (match Typed_pass.app_parts e with
    | Some (f, _) -> (
        (* bcc-lint: allow kern/unsafe-index — unsafe_head is this rule's own detector, not an indexing call *)
        match unsafe_head f with
        | Some prim -> visit_site ~loc:e.Typedtree.exp_loc prim
        | None -> ())
    | None -> ());
    let pushed =
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_for (_, _, lo, hi, _, _) ->
          ancestors := For_bound (lo, hi) :: !ancestors;
          true
      | Typedtree.Texp_ifthenelse (c, _, _) | Typedtree.Texp_while (c, _) ->
          ancestors := Cond c :: !ancestors;
          true
      | _ -> false
    in
    Tast_iterator.default_iterator.expr self e;
    if pushed then
      ancestors := (match !ancestors with _ :: t -> t | [] -> [])
  in
  let value_binding self vb =
    let name =
      match Typed_pass.binding_name vb with Some n -> n | None -> "<fun>"
    in
    fn_stack := name :: !fn_stack;
    Tast_iterator.default_iterator.value_binding self vb;
    fn_stack := (match !fn_stack with _ :: t -> t | [] -> [])
  in
  let structure_item self item =
    guards := [];
    Hashtbl.reset lenvars;
    Tast_iterator.default_iterator.structure_item self item
  in
  let it =
    { Tast_iterator.default_iterator with expr; value_binding; structure_item }
  in
  it.Tast_iterator.structure it u.Typed_pass.tu_str

(* ------------------------------------------------------- perf/noalloc *)

(* bcc-lint: allow det/float-format — primitive names, not format strings; "%equal" only looks like a %e conversion *)
let compare_prims =
  [
    "%compare"; "%equal"; "%notequal"; "%lessthan"; "%greaterthan";
    "%lessequal"; "%greaterequal"; "caml_compare"; "caml_equal";
  ]

let specialized_compare_type ty =
  Typed_pass.is_immediate_type ty
  || Typed_pass.is_boxed_scalar_type ty
  ||
  match Typed_pass.type_path ty with
  | Some p ->
      Path.same p Predef.path_string || Path.same p Predef.path_bytes
  | None -> false

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty, _) -> is_arrow ty
  | _ -> false

(* Walk the generic arrow scheme of a callee alongside the actual
   arguments: a [Tvar] parameter instantiated at float/int32/int64/
   nativeint means the argument is boxed at the call. *)
let boxed_poly_args val_type args =
  let rec go ty args acc =
    match (Types.get_desc ty, args) with
    | Types.Tpoly (ty, _), _ -> go ty args acc
    | Types.Tarrow (_, param, rest, _), (_, arg) :: args ->
        let acc =
          match (Types.get_desc param, arg) with
          | Types.Tvar _, Some (a : Typedtree.expression)
            when Typed_pass.is_boxed_scalar_type a.Typedtree.exp_type ->
              a :: acc
          | _ -> acc
        in
        go rest args acc
    | _ -> List.rev acc
  in
  go val_type args []

let check_marked_body col ~fn body =
  let flag ~loc what =
    Typed_pass.emit col ~loc "perf/noalloc"
      (Printf.sprintf
         "%s in noalloc function %s; the Gc.minor_words pins on this path \
          assume it stays allocation-free"
         what fn)
  in
  (* Ref cells at function entry are constant-count bookkeeping the pin
     slack budgets for (loop counters, accumulators); a ref allocated
     INSIDE a loop scales with the iteration count and is the regression
     the pins exist to catch. *)
  let in_loop = ref 0 in
  let expr_check e =
    let loc = e.Typedtree.exp_loc in
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_tuple _ -> flag ~loc "tuple allocation"
    | Typedtree.Texp_record _ -> flag ~loc "record allocation"
    | Typedtree.Texp_array (_ :: _) -> flag ~loc "array literal allocation"
    | Typedtree.Texp_construct (_, cd, _ :: _) ->
        flag ~loc
          (Printf.sprintf "constructor allocation (%s)" cd.Types.cstr_name)
    | Typedtree.Texp_function _ -> flag ~loc "closure allocation"
    | Typedtree.Texp_lazy _ -> flag ~loc "lazy thunk allocation"
    | Typedtree.Texp_letop _ -> flag ~loc "binding-operator allocation"
    | Typedtree.Texp_pack _ -> flag ~loc "first-class module allocation"
    | Typedtree.Texp_object _ -> flag ~loc "object allocation"
    | Typedtree.Texp_apply (f, args) -> (
        if is_arrow e.Typedtree.exp_type then
          flag ~loc "partial application (closure allocation)";
        match Typed_pass.ident_of f with
        | Some (_, vd) -> (
            match Typed_pass.prim_name vd with
            | Some "%makemutable" when !in_loop > 0 ->
                flag ~loc "ref allocation inside a loop"
            | Some prim when List.mem prim compare_prims -> (
                (* The compiler specializes comparison primitives at the
                   known base types; anything else runs the polymorphic
                   comparator, which can allocate and is not
                   domain-deterministic on cyclic/functional data. *)
                match args with
                | (_, Some a) :: _
                  when not (specialized_compare_type a.Typedtree.exp_type) ->
                    flag ~loc:a.Typedtree.exp_loc
                      "polymorphic comparison at a non-specialized type"
                | _ -> ())
            | Some _ -> ()
            | None ->
                List.iter
                  (fun (a : Typedtree.expression) ->
                    flag ~loc:a.Typedtree.exp_loc
                      "boxed scalar argument at a polymorphic call")
                  (boxed_poly_args vd.Types.val_type args))
        | None -> ())
    | _ -> ()
  in
  let expr self e =
    expr_check e;
    let looping =
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_for _ | Typedtree.Texp_while _ ->
          incr in_loop;
          true
      | _ -> false
    in
    Tast_iterator.default_iterator.expr self e;
    if looping then decr in_loop
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it body

let check_noalloc _index u ~noalloc col =
  if noalloc <> [] then begin
    let marks = Hashtbl.create 8 in
    List.iter
      (fun (m : Lint.noalloc_mark) -> Hashtbl.replace marks m.Lint.na_line false)
      noalloc;
    let mark_lines vb =
      let l = Typed_pass.start_line vb.Typedtree.vb_loc in
      let hit line = Hashtbl.mem marks line in
      if hit l then Some l else if hit (l - 1) then Some (l - 1) else None
    in
    let value_binding self vb =
      (match mark_lines vb with
      | Some mark_line ->
          Hashtbl.replace marks mark_line true;
          let fn =
            match Typed_pass.binding_name vb with
            | Some n -> n
            | None -> "<fun>"
          in
          List.iter (check_marked_body col ~fn)
            (Typed_pass.fun_bodies vb.Typedtree.vb_expr)
      | None -> ());
      Tast_iterator.default_iterator.value_binding self vb
    in
    let it = { Tast_iterator.default_iterator with value_binding } in
    it.Tast_iterator.structure it u.Typed_pass.tu_str;
    (* A mark that matched no binding is drift — the function it used
       to pin was renamed or moved.  Fail loudly rather than silently
       checking nothing. *)
    (* bcc-lint: allow det/hashtbl-order — folded into a list that is sorted on the next line *)
    Hashtbl.fold (fun line used acc -> if used then acc else line :: acc) marks []
    |> List.sort Int.compare
    |> List.iter (fun line ->
           Typed_pass.emit col
             ~loc:
               {
                 Location.loc_ghost = false;
                 loc_start =
                   {
                     Lexing.pos_fname = u.Typed_pass.tu_path;
                     pos_lnum = line;
                     pos_bol = 0;
                     pos_cnum = 0;
                   };
                 loc_end =
                   {
                     Lexing.pos_fname = u.Typed_pass.tu_path;
                     pos_lnum = line;
                     pos_bol = 0;
                     pos_cnum = 0;
                   };
               }
             "perf/noalloc"
             "noalloc annotation does not cover any binding starting on \
              this or the next line")
  end

(* --------------------------------------------------------------- api *)

let rules : Typed_pass.rule_fn list =
  [
    (fun index u ~noalloc:_ col -> check_unsafe_index index u col);
    (fun index u ~noalloc col -> check_noalloc index u ~noalloc col);
  ]
