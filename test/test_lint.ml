(* Tests for the determinism & domain-safety linter: one positive and
   one pragma-suppressed fixture per rule, the pragma meta-rules
   (unknown rule name, malformed pragma), rule scoping by path, and the
   JSON report envelope. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Lint a fixture snippet as if it lived at [path] (default: a library
   source, where every rule is in scope). *)
let lint ?(path = "lib/fixture/fixture.ml") src = Lint.lint_string ~path src

let rule_ids (r : Lint.report) = List.map (fun f -> f.Lint.rule_id) r.Lint.findings

let suppressed_ids (r : Lint.report) =
  List.map (fun s -> s.Lint.sup_rule) r.Lint.suppressions

let check_finds rule src =
  let r = lint src in
  check_bool
    (Printf.sprintf "%s raised by %S" rule src)
    true
    (List.mem rule (rule_ids r))

let check_clean src =
  let r = lint src in
  check_int (Printf.sprintf "no findings in %S" src) 0 (List.length r.Lint.findings)

let check_suppressed rule src =
  let r = lint src in
  check_int (Printf.sprintf "nothing active in %S" src) 0 (List.length r.Lint.findings);
  check_bool
    (Printf.sprintf "%s suppressed in %S" rule src)
    true
    (List.mem rule (suppressed_ids r))

(* ------------------------------------------------------- per-rule cases *)

let test_ambient_rng () =
  check_finds "det/ambient-rng" "let roll () = Random.int 6\n";
  check_finds "det/ambient-rng" "let init () = Random.self_init ()\n";
  check_finds "det/ambient-rng" "let s = Random.State.make [| 1 |]\n";
  check_suppressed "det/ambient-rng"
    "(* bcc-lint: allow det/ambient-rng — fixture justification *)\n\
     let roll () = Random.int 6\n";
  (* Prng's own implementation directory is exempt. *)
  let r = lint ~path:"lib/prng/fixture.ml" "let roll () = Random.int 6\n" in
  check_int "Random.* legal under lib/prng" 0 (List.length r.Lint.findings)

let test_wall_clock () =
  check_finds "det/wall-clock" "let t () = Unix.gettimeofday ()\n";
  check_finds "det/wall-clock" "let t () = Sys.time ()\n";
  check_finds "det/wall-clock" "let t () = Unix.time ()\n";
  (* An external binding a clock primitive is flagged too — the Ldot
     checks alone would miss a private C stub. *)
  check_finds "det/wall-clock"
    "external now : unit -> int = \"my_clock_gettime_ns\"\n";
  check_suppressed "det/wall-clock"
    "let t () = Sys.time () (* bcc-lint: allow det/wall-clock — fixture justification *)\n";
  (* The exemption is path-scoped to Prof's implementation, not the whole
     obs directory. *)
  let r = lint ~path:"lib/obs/prof.ml" "let t () = Sys.time ()\n" in
  check_int "wall-clock legal in lib/obs/prof.ml" 0 (List.length r.Lint.findings);
  let r =
    lint ~path:"lib/obs/prof.ml"
      "external now : unit -> int = \"bcc_prof_clock_monotonic_ns\"\n"
  in
  check_int "clock external legal in lib/obs/prof.ml" 0
    (List.length r.Lint.findings);
  let r = lint ~path:"lib/obs/fixture.ml" "let t () = Sys.time ()\n" in
  check_int "rest of lib/obs is not exempt" 1 (List.length r.Lint.findings)

let test_poly_compare () =
  check_finds "det/poly-compare" "let f a b = compare a b\n";
  check_finds "det/poly-compare" "let f a b = Stdlib.compare a b\n";
  check_finds "det/poly-compare" "let h x = Hashtbl.hash x\n";
  check_finds "det/poly-compare" "let sorted l = List.sort compare l\n";
  check_suppressed "det/poly-compare"
    "(* bcc-lint: allow det/poly-compare — fixture justification *)\n\
     let f a b = compare a b\n";
  (* A module defining its own [compare] may use it bare. *)
  check_clean "let compare a b = Int.compare a b\nlet f a b = compare a b\n";
  check_clean "let f a b = Int.compare a b\n"

let test_float_format () =
  check_finds "det/float-format" "let s x = Printf.sprintf \"%.3f\" x\n";
  check_finds "det/float-format" "let s x = Printf.sprintf \"%g\" x\n";
  check_finds "det/float-format" "let s x = Printf.sprintf \"v=%8.2e\" x\n";
  check_finds "det/float-format" "let s x = string_of_float x\n";
  (* %% is an escaped percent, %d is not a float conversion. *)
  check_clean "let s x = Printf.sprintf \"100%%d %d\" x\n";
  check_suppressed "det/float-format"
    "(* bcc-lint: allow det/float-format -- fixture justification *)\n\
     let s x = Printf.sprintf \"%.3f\" x\n";
  let r = lint ~path:"lib/obs/artifact.ml" "let s x = Printf.sprintf \"%.17g\" x\n" in
  check_int "canonical printer exempt" 0 (List.length r.Lint.findings)

let test_hashtbl_order () =
  check_finds "det/hashtbl-order" "let ks h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n";
  check_finds "det/hashtbl-order" "let dump h = Hashtbl.iter print_endline h\n";
  check_clean "let n h = Hashtbl.length h\n";
  check_suppressed "det/hashtbl-order"
    "(* bcc-lint: allow det/hashtbl-order — fixture justification *)\n\
     let ks h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"

let test_global_mutable () =
  check_finds "par/global-mutable" "let table = Hashtbl.create 16\n";
  check_finds "par/global-mutable" "let counter = ref 0\n";
  check_finds "par/global-mutable" "let buf = Array.make 8 0\n";
  check_finds "par/global-mutable" "let words = [| 1; 2; 3 |]\n";
  (* Function-local mutable state is fine. *)
  check_clean "let f () = let h = Hashtbl.create 16 in Hashtbl.length h\n";
  check_suppressed "par/global-mutable"
    "(* bcc-lint: allow par/global-mutable — guarded by the fixture mutex *)\n\
     let table = Hashtbl.create 16\n";
  (* The rule targets libraries reachable from Bcc_par; executables are
     out of scope. *)
  let r = lint ~path:"bin/fixture.ml" "let table = Hashtbl.create 16\n" in
  check_int "top-level mutable legal in bin/" 0 (List.length r.Lint.findings)

(* --------------------------------------------------------- pragma meta *)

let test_unknown_rule_pragma () =
  let r =
    lint
      "(* bcc-lint: allow det/no-such-rule — bogus *)\nlet x = 1\n"
  in
  check_bool "unknown rule reported" true
    (List.mem "lint/unknown-rule" (rule_ids r));
  (* The bad pragma must not suppress anything either. *)
  let r =
    lint
      "(* bcc-lint: allow det/no-such-rule — bogus *)\nlet counter = ref 0\n"
  in
  check_bool "unknown rule reported alongside" true
    (List.mem "lint/unknown-rule" (rule_ids r));
  check_bool "original finding survives" true
    (List.mem "par/global-mutable" (rule_ids r))

let test_malformed_pragma () =
  let r = lint "(* bcc-lint: allow det/wall-clock *)\nlet x = 1\n" in
  check_bool "missing reason reported" true
    (List.mem "lint/malformed-pragma" (rule_ids r));
  let r = lint "(* bcc-lint: deny det/wall-clock — nope *)\nlet x = 1\n" in
  check_bool "unknown directive reported" true
    (List.mem "lint/malformed-pragma" (rule_ids r))

let test_pragma_placement () =
  (* A pragma suppresses on its own line and on the next, nothing else. *)
  check_suppressed "par/global-mutable"
    "(* bcc-lint: allow par/global-mutable — fixture *)\nlet c = ref 0\n";
  check_suppressed "par/global-mutable"
    "let c = ref 0 (* bcc-lint: allow par/global-mutable — fixture *)\n";
  let r =
    lint "(* bcc-lint: allow par/global-mutable — fixture *)\n\nlet c = ref 0\n"
  in
  check_bool "two lines below is out of pragma range" true
    (List.mem "par/global-mutable" (rule_ids r))

let test_pragma_whole_expression_window () =
  (* One pragma above a multi-line definition suppresses through the
     whole definition, not just the next line. *)
  check_suppressed "det/float-format"
    "(* bcc-lint: allow det/float-format — fixture *)\n\
     let s x =\n\
    \  let y = x +. 1.0 in\n\
    \  Printf.sprintf \"%.3f\" y\n";
  (* ... but a finding in the NEXT definition stays active. *)
  let r =
    lint
      "(* bcc-lint: allow det/float-format — fixture *)\n\
       let a = 1\n\n\
       let s x = Printf.sprintf \"%.3f\" x\n"
  in
  check_bool "next binding is outside the window" true
    (List.mem "det/float-format" (rule_ids r))

let test_parse_error () =
  let r = lint "let let = in\n" in
  check_bool "parse error reported" true
    (List.mem "lint/parse-error" (rule_ids r))

(* --------------------------------------------------------- typed pass *)

let typed_rules = Rules_kern.rules @ Rules_par.rules

(* Typecheck a fixture snippet in process and run the typed rule
   families over it. *)
let tlint ?(path = "lib/fixture/fixture.ml") src =
  match Typed_pass.typecheck_string ~path src with
  | Result.Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg
  | Result.Ok u -> Typed_pass.run_units ~rules:typed_rules [ u ]

let evidence_kinds (r : Lint.report) =
  List.map
    (fun (s : Lint.site) ->
      match s.Lint.site_evidence with
      | Lint.Loop_bound _ -> "loop-bound"
      | Lint.Guard _ -> "guard"
      | Lint.Branch _ -> "branch"
      | Lint.Pragma _ -> "pragma"
      | Lint.No_evidence -> "none")
    r.Lint.sites

let test_typed_unsafe_index () =
  (* Positive: an unguarded unsafe call is an error AND an inventoried
     site with no evidence. *)
  let r = tlint "let f (a : int array) i = Array.unsafe_get a i\n" in
  check_bool "unguarded unsafe_get flagged" true
    (List.mem "kern/unsafe-index" (rule_ids r));
  check_bool "site inventoried without evidence" true
    (evidence_kinds r = [ "none" ]);
  (* Negative: a loop bounded by Array.length dominates the index. *)
  let r =
    tlint
      "let sum (a : int array) =\n\
      \  let s = ref 0 in\n\
      \  for i = 0 to Array.length a - 1 do\n\
      \    s := !s + Array.unsafe_get a i\n\
      \  done;\n\
      \  !s\n"
  in
  check_int "loop-bounded site is clean" 0 (List.length r.Lint.findings);
  check_bool "loop-bound evidence recorded" true
    (evidence_kinds r = [ "loop-bound" ]);
  (* Negative: the loop bound resolves through a local length variable. *)
  let r =
    tlint
      "let sum (a : int array) =\n\
      \  let n = Array.length a in\n\
      \  let s = ref 0 in\n\
      \  for i = 0 to n - 1 do\n\
      \    s := !s + Array.unsafe_get a i\n\
      \  done;\n\
      \  !s\n"
  in
  check_int "lenvar-bounded site is clean" 0 (List.length r.Lint.findings);
  (* Negative: a dominating precondition raise. *)
  let r =
    tlint
      "let get (a : int array) i =\n\
      \  if i < 0 || i >= Array.length a then invalid_arg \"get\";\n\
      \  Array.unsafe_get a i\n"
  in
  check_int "guard-dominated site is clean" 0 (List.length r.Lint.findings);
  check_bool "guard evidence recorded" true (evidence_kinds r = [ "guard" ]);
  (* Pragma-suppressed: the finding is suppressed and the site stays in
     the inventory carrying the pragma's justification. *)
  let r =
    tlint
      "(* bcc-lint: allow kern/unsafe-index — fixture caller contract *)\n\
       let f (a : int array) i = Array.unsafe_get a i\n"
  in
  check_int "pragma suppresses the finding" 0 (List.length r.Lint.findings);
  check_bool "suppression recorded" true
    (List.mem "kern/unsafe-index" (suppressed_ids r));
  check_bool "site keeps pragma evidence" true (evidence_kinds r = [ "pragma" ])

let census_keys (r : Lint.report) =
  List.map
    (fun ((s : Lint.site), ord) ->
      Printf.sprintf "%s %s %d" s.Lint.site_fn s.Lint.site_prim ord)
    (Lint.census_sites r.Lint.sites)

let test_census_keys () =
  (* LINT.json keys each unsafe site by (file, binding, primitive,
     ordinal): shifting every line leaves the census as it was, while
     moving a site to another binding changes it. *)
  let src ~pad ~moved =
    pad
    ^ "let f (a : int array) =\n\
      \  for i = 0 to Array.length a - 1 do\n\
      \    Array.unsafe_set a i (Array.unsafe_get a i"
    ^ (if moved then "" else " + Array.unsafe_get a 0")
    ^ ")\n\
      \  done\n\
       let g (a : int array) =\n\
      \  for i = 0 to Array.length a - 1 do\n\
      \    ignore (Array.unsafe_get a i"
    ^ (if moved then " + Array.unsafe_get a 0" else "")
    ^ ")\n\
      \  done\n"
  in
  let base = tlint (src ~pad:"" ~moved:false) in
  Alcotest.(check (list string))
    "keys in census order"
    [ "f %array_unsafe_get 0"; "f %array_unsafe_get 1";
      "f %array_unsafe_set 0"; "g %array_unsafe_get 0" ]
    (census_keys base);
  let shifted = tlint (src ~pad:"let pad = 1\n\n\n" ~moved:false) in
  let sites r =
    Artifact.to_string
      (Option.get
         (Artifact.member "unsafe_sites"
            (Option.get
               (Artifact.member "payload"
                  (Lint.report_to_json ~paths:[ "lib" ] r)))))
  in
  check_string "JSON census unchanged by a line shift" (sites base)
    (sites shifted);
  check_bool "moving a site to another binding changes the census" true
    (census_keys (tlint (src ~pad:"" ~moved:true)) <> census_keys base)

let test_typed_noalloc () =
  (* Positive: a marked function that builds a tuple. *)
  let r = tlint "(* bcc-lint: noalloc *)\nlet pair x = (x, x)\n" in
  check_bool "tuple allocation flagged" true
    (List.mem "perf/noalloc" (rule_ids r));
  (* Positive: a capturing closure materialized inside a marked function
     (the outer curried chain itself is not an allocation). *)
  let r =
    tlint
      "(* bcc-lint: noalloc *)\n\
       let apply g x = let h y = g (x + y) in h 0\n"
  in
  check_bool "closure allocation flagged" true
    (List.mem "perf/noalloc" (rule_ids r));
  (* Negative: a ref at function entry is constant-count bookkeeping the
     Gc pin slack budgets for. *)
  let r =
    tlint
      "(* bcc-lint: noalloc *)\n\
       let count n =\n\
      \  let c = ref 0 in\n\
      \  for i = 1 to n do c := !c + i done;\n\
      \  !c\n"
  in
  check_int "entry ref is clean" 0 (List.length r.Lint.findings);
  (* Positive: the same ref inside the loop allocates per iteration. *)
  let r =
    tlint
      "(* bcc-lint: noalloc *)\n\
       let count n =\n\
      \  let t = ref 0 in\n\
      \  for i = 1 to n do\n\
      \    let c = ref i in\n\
      \    t := !t + !c\n\
      \  done;\n\
      \  !t\n"
  in
  check_bool "in-loop ref flagged" true (List.mem "perf/noalloc" (rule_ids r));
  (* Drift: a mark that covers no binding is itself an error. *)
  let r = tlint "(* bcc-lint: noalloc *)\n\nlet far_away = 1\n" in
  check_bool "dangling mark reported" true
    (List.mem "perf/noalloc" (rule_ids r));
  (* Stacked annotations chain: the allow pragma above the mark still
     reaches the binding below both. *)
  let r =
    tlint
      "(* bcc-lint: allow perf/noalloc — fixture builds its result *)\n\
       (* bcc-lint: noalloc *)\n\
       let pair x = (x, x)\n"
  in
  check_int "stacked pragma suppresses" 0 (List.length r.Lint.findings);
  check_bool "suppression recorded" true
    (List.mem "perf/noalloc" (suppressed_ids r))

let dls_prelude =
  "let key : bytes Domain.DLS.key =\n\
  \  Domain.DLS.new_key (fun () -> Bytes.create 8)\n"

let test_typed_dls_escape () =
  (* Positive: fetching lane state at module scope shares one value
     across every lane. *)
  let r = tlint (dls_prelude ^ "let shared = Domain.DLS.get key\n") in
  check_bool "module-scope fetch flagged" true
    (List.mem "par/dls-escape" (rule_ids r));
  (* Positive: storing the scratch value into a global ref. *)
  let r =
    tlint
      (dls_prelude
     ^ "let leak : bytes ref = ref Bytes.empty\n\
        let f () = let b = Domain.DLS.get key in leak := b\n")
  in
  check_bool "store into global flagged" true
    (List.mem "par/dls-escape" (rule_ids r));
  (* Positive: a closure capturing the scratch value outlives the call. *)
  let r =
    tlint
      (dls_prelude
     ^ "let f () = let b = Domain.DLS.get key in fun () -> Bytes.length b\n")
  in
  check_bool "closure capture flagged" true
    (List.mem "par/dls-escape" (rule_ids r));
  (* Negative: mutating the scratch value inside the call is the whole
     point of lane scratch. *)
  let r =
    tlint
      (dls_prelude
     ^ "let f () = let b = Domain.DLS.get key in Bytes.set b 0 'x'\n")
  in
  check_int "lane-local use is clean" 0 (List.length r.Lint.findings);
  (* Pragma-suppressed deliberate registry. *)
  let r =
    tlint
      (dls_prelude
     ^ "(* bcc-lint: allow par/dls-escape — fixture registry under mutex *)\n\
        let shared = Domain.DLS.get key\n")
  in
  check_int "pragma suppresses escape" 0 (List.length r.Lint.findings);
  check_bool "suppression recorded" true
    (List.mem "par/dls-escape" (suppressed_ids r))

let dls_buf_prelude =
  "let key : int array Domain.DLS.key =\n\
  \  Domain.DLS.new_key (fun () -> Array.make 8 0)\n"

let test_typed_dls_zero () =
  (* Positive: reading a kept-across-calls scratch buffer without
     re-zeroing it (the PR 7 stride bug shape). *)
  let r =
    tlint
      (dls_buf_prelude
     ^ "let peek () = let buf = Domain.DLS.get key in buf.(0)\n")
  in
  check_bool "read without zeroing flagged" true
    (List.mem "par/dls-zero" (rule_ids r));
  (* Negative: a fill re-establishes the invariant before the read. *)
  let r =
    tlint
      (dls_buf_prelude
     ^ "let peek () =\n\
        \  let buf = Domain.DLS.get key in\n\
        \  Array.fill buf 0 8 0;\n\
        \  buf.(0)\n")
  in
  check_int "fill before read is clean" 0 (List.length r.Lint.findings);
  (* Negative: a constant-zero store also counts. *)
  let r =
    tlint
      (dls_buf_prelude
     ^ "let peek () =\n\
        \  let buf = Domain.DLS.get key in\n\
        \  buf.(0) <- 0;\n\
        \  buf.(1)\n")
  in
  check_int "zero store before read is clean" 0 (List.length r.Lint.findings)

(* Cross-unit: rules_kern's validator index spans compilation units, so a
   bounds check living in another module still counts as evidence.  The
   fixture pair is compiled to real .cmt files with ocamlc and loaded
   back through the same Typed_pass.load_dir the CLI uses. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_cross_unit_cmt () =
  with_temp_dir "bcc_lint_cmt" (fun dir ->
      let write name src =
        let oc = open_out (Filename.concat dir name) in
        output_string oc src;
        close_out oc
      in
      (* No "check_" prefix: the evidence must come from the cross-unit
         validator index, not the name heuristic. *)
      write "fixture_dep.ml"
        "let ensure_index (a : int array) i =\n\
        \  if i < 0 || i >= Array.length a then invalid_arg \"index\"\n";
      write "fixture_use.ml"
        "let get (a : int array) i =\n\
        \  Fixture_dep.ensure_index a i;\n\
        \  Array.unsafe_get a i\n";
      let rc =
        Sys.command
          (Printf.sprintf
             "cd %s && ocamlc -c -bin-annot fixture_dep.ml fixture_use.ml \
              2>/dev/null"
             (Filename.quote dir))
      in
      check_int "fixtures compile" 0 rc;
      let units, problems = Typed_pass.load_dir dir in
      check_int "no cmt problems" 0 (List.length problems);
      check_int "two units loaded" 2 (List.length units);
      let r = Typed_pass.run_units ~rules:typed_rules units in
      check_int "cross-unit validator call is evidence" 0
        (List.length r.Lint.findings);
      check_bool "site carries guard evidence" true
        (List.exists
           (fun (s : Lint.site) ->
             match s.Lint.site_evidence with
             | Lint.Guard _ -> true
             | _ -> false)
           r.Lint.sites))

(* A scanned source with no loaded unit is a finding, not a silent pass:
   of two fixtures only one is compiled, and only the other is
   reported. *)
let test_missing_cmt () =
  with_temp_dir "bcc_lint_missing" (fun dir ->
      let path name = Filename.concat dir name in
      List.iter
        (fun name ->
          let oc = open_out (path name) in
          output_string oc "let x = 1\n";
          close_out oc)
        [ "checked.ml"; "unchecked.ml" ];
      let rc =
        Sys.command
          (Printf.sprintf "ocamlc -c -bin-annot -o %s %s 2>/dev/null"
             (Filename.quote (path "checked.cmo"))
             (Filename.quote (path "checked.ml")))
      in
      check_int "fixture compiles" 0 rc;
      let r = Typed_pass.lint_cmt_dir ~rules:typed_rules ~paths:[ dir ] dir in
      match r.Lint.findings with
      | [ f ] ->
          check_string "rule" "lint/type-error" f.Lint.rule_id;
          check_string "file" (path "unchecked.ml") f.Lint.file
      | fs -> Alcotest.failf "want one finding, got %d" (List.length fs))

(* ------------------------------------------------------------- report *)

let test_exit_code_and_json () =
  let bad = lint "let c = ref 0\n" in
  let good = lint "let x = 1\n" in
  check_int "findings exit 1" 1 (Lint.exit_code bad);
  check_int "clean exit 0" 0 (Lint.exit_code good);
  let doc = Lint.report_to_json ~paths:[ "lib" ] bad in
  (* The report round-trips through the Artifact serializer and carries
     the standard envelope. *)
  let doc = Artifact.of_string (Artifact.to_string doc) in
  let str key j = Option.bind (Artifact.member key j) Artifact.to_string_opt in
  check_string "kind" "lint" (Option.value ~default:"?" (str "kind" doc));
  let payload = Option.get (Artifact.member "payload" doc) in
  let summary = Option.get (Artifact.member "summary" payload) in
  check_int "one error in summary" 1
    (Option.value ~default:(-1)
       (Option.bind (Artifact.member "errors" summary) Artifact.to_int_opt));
  let findings =
    Option.get (Artifact.to_list_opt (Option.get (Artifact.member "findings" payload)))
  in
  check_int "one finding serialized" 1 (List.length findings)

let test_catalogue_ids_stable () =
  (* Stable ids are part of the pragma grammar; renaming one silently
     invalidates every annotation in the tree. *)
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "catalogue has %s" id) true
        (List.exists (fun r -> r.Lint.id = id) Lint.catalogue))
    [
      "det/ambient-rng"; "det/wall-clock"; "det/poly-compare";
      "det/float-format"; "det/hashtbl-order"; "par/global-mutable";
      "kern/unsafe-index"; "perf/noalloc"; "par/dls-escape"; "par/dls-zero";
      "lint/type-error"; "lint/unknown-rule"; "lint/malformed-pragma";
      "lint/parse-error";
    ]

let test_sarif_shape () =
  let r = lint "let c = ref 0\n" in
  let doc = Artifact.of_string (Artifact.to_string (Sarif.of_report r)) in
  let str key j = Option.bind (Artifact.member key j) Artifact.to_string_opt in
  check_string "sarif version" "2.1.0"
    (Option.value ~default:"?" (str "version" doc));
  let run =
    match Option.bind (Artifact.member "runs" doc) Artifact.to_list_opt with
    | Some [ run ] -> run
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let results =
    Option.get
      (Option.bind (Artifact.member "results" run) Artifact.to_list_opt)
  in
  check_int "one result" 1 (List.length results);
  check_string "ruleId" "par/global-mutable"
    (Option.value ~default:"?" (str "ruleId" (List.hd results)));
  (* Every catalogue rule rides along in the driver block. *)
  let rules =
    Option.get
      (Option.bind (Artifact.member "tool" run) (fun t ->
           Option.bind (Artifact.member "driver" t) (fun d ->
               Option.bind (Artifact.member "rules" d) Artifact.to_list_opt)))
  in
  check_int "catalogue exported" (List.length Lint.catalogue)
    (List.length rules)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "det/ambient-rng" `Quick test_ambient_rng;
          Alcotest.test_case "det/wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "det/poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "det/float-format" `Quick test_float_format;
          Alcotest.test_case "det/hashtbl-order" `Quick test_hashtbl_order;
          Alcotest.test_case "par/global-mutable" `Quick test_global_mutable;
        ] );
      ( "pragmas",
        [
          Alcotest.test_case "unknown rule name" `Quick test_unknown_rule_pragma;
          Alcotest.test_case "malformed pragma" `Quick test_malformed_pragma;
          Alcotest.test_case "placement window" `Quick test_pragma_placement;
          Alcotest.test_case "whole-expression window" `Quick
            test_pragma_whole_expression_window;
        ] );
      ( "typed",
        [
          Alcotest.test_case "kern/unsafe-index" `Quick test_typed_unsafe_index;
          Alcotest.test_case "census keys" `Quick test_census_keys;
          Alcotest.test_case "perf/noalloc" `Quick test_typed_noalloc;
          Alcotest.test_case "par/dls-escape" `Quick test_typed_dls_escape;
          Alcotest.test_case "par/dls-zero" `Quick test_typed_dls_zero;
          Alcotest.test_case "cross-unit cmt" `Quick test_cross_unit_cmt;
          Alcotest.test_case "missing cmt is a finding" `Quick test_missing_cmt;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "exit code and json report" `Quick
            test_exit_code_and_json;
          Alcotest.test_case "catalogue ids stable" `Quick
            test_catalogue_ids_stable;
          Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
        ] );
    ]
