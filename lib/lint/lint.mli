(** Source pass and shared machinery of the two-stage determinism and
    domain-safety linter for the repo's own sources.

    The repro's contract — experiment tables that are byte-identical
    across runs and across [BCC_DOMAINS] — rests on conventions that the
    compiler cannot check: all randomness flows through [Prng], no
    wall-clock reaches experiment output, floats are printed through
    [Artifact]'s canonical printer, and module-level mutable state in
    code reachable from [Bcc_par.map_trials] is guarded.  [Bcc_lint]
    parses each [.ml] file with [compiler-libs] ([Pparse] /
    [Ast_iterator]) and flags violations of those conventions.

    Stage 2 — the typed pass over [.cmt] files ({!Typed_pass}, with the
    rule families in [Rules_kern] and [Rules_par]) — reuses the finding,
    pragma, and report machinery defined here.

    Any finding can be suppressed at its site with a pragma comment on
    the same line or the line directly above:

    {v (* bcc-lint: allow <rule>[, <rule>]* — <reason> *) v}

    When an expression or value binding starts on one of the two anchor
    lines, the suppression window extends over the whole expression, so
    one pragma above a multi-line function covers the function body.

    The reason is mandatory; a pragma naming an unknown rule or missing
    its reason is itself a finding.  [docs/STATIC_ANALYSIS.md] documents
    the rule catalogue and the pragma grammar. *)

type severity = Error | Warning

type rule = {
  id : string;  (** stable identifier, e.g. ["det/ambient-rng"] *)
  severity : severity;
  summary : string;  (** one-line description for [--rules] output *)
}

val catalogue : rule list
(** Every rule the linter can emit, including the [lint/*] meta-rules
    about malformed pragmas and unparseable files. *)

type finding = {
  rule_id : string;
  severity : severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

type suppression = {
  sup_rule : string;
  sup_file : string;
  sup_line : int;  (** line of the suppressed finding, not of the pragma *)
  sup_reason : string;
}

(** Why an unsafe indexing site is believed in-bounds; the typed pass
    emits one {!site} per unsafe call into the LINT.json inventory. *)
type evidence =
  | Loop_bound of string
      (** inside a for-loop whose bound mentions a length/dim *)
  | Guard of string
      (** dominated by a validator call or a precondition raise *)
  | Branch of string
      (** inside a branch whose condition mentions a length/dim *)
  | Pragma of string  (** allow-pragma; carries the pragma's reason *)
  | No_evidence  (** unjustified — paired with a kern/unsafe-index finding *)

type site = {
  site_file : string;
  site_line : int;
  site_col : int;
  site_prim : string;
      (** primitive or value name, e.g. ["%array_unsafe_get"] *)
  site_fn : string;
      (** nearest enclosing binding name, ["<toplevel>"] if none *)
  site_evidence : evidence;
}

type report = {
  findings : finding list;  (** unsuppressed, sorted by file/line/col *)
  suppressions : suppression list;  (** pragma-silenced findings *)
  sites : site list;  (** unsafe-site inventory (typed pass only) *)
  files_scanned : int;
}

(** {2 Pragmas and suppression windows}

    Exposed for the typed pass ({!Typed_pass}), which extracts pragmas
    from the unit's source and applies them to typed-rule findings with
    windows computed from the typed tree. *)

type pragma = {
  p_end_line : int;  (** line the comment closes on; suppression anchor *)
  p_rules : string list;
  p_reason : string;
}

type noalloc_mark = { na_line : int }
(** A [(* bcc-lint: noalloc *)] annotation: the binding starting on
    [na_line] or [na_line + 1] must not box (rule [perf/noalloc]). *)

val extract_pragmas :
  path:string -> string -> pragma list * noalloc_mark list * finding list
(** Scans comments in raw source for [bcc-lint:] pragmas.  The finding
    list carries [lint/unknown-rule] / [lint/malformed-pragma] meta
    findings. *)

val note_window : (int, int) Hashtbl.t -> Location.t -> unit
(** Record [start_line -> max end_line] for a multi-line location into a
    window table (used with {!window_end}). *)

val window_end : (int, int) Hashtbl.t -> int -> int
(** Last line covered by a pragma anchored at the given line: at least
    [anchor + 1], extended to the end of any expression starting on the
    anchor line or the next. *)

val chain_anchor : annot_lines:int list -> int -> int
(** Advance an annotation's anchor line past any directly-following
    annotation lines, so stacked [bcc-lint:] comments (an allow pragma
    above a noalloc mark, or several pragmas) all attach to the binding
    below the stack. *)

val apply_pragmas :
  path:string ->
  window_end:(int -> int) ->
  pragma list ->
  finding list ->
  finding list * suppression list
(** Partition findings into (still active, suppressed-by-pragma). *)

val find_rule : string -> rule option
val rule_applies : path:string -> string -> bool
val sort_findings : finding list -> finding list
val sort_sites : site list -> site list

val census_sites : site list -> (site * int) list
(** The [LINT.json] census order: sites sorted by (file, enclosing
    binding, primitive, ordinal), each paired with its ordinal — its
    index among that binding's sites of that primitive in source
    order. *)

val severity_to_string : severity -> string

val merge : report -> report -> report
val empty : report

val lint_string : path:string -> string -> report
(** Lints one compilation unit given as a string.  [path] is only used
    for rule scoping (e.g. [Random.*] is legal under [lib/prng]) and for
    locations in findings; nothing is read from disk. *)

val lint_file : string -> report
(** Reads and lints one [.ml] file ([Pparse.parse_implementation]).
    Unparseable input yields a [lint/parse-error] finding rather than an
    exception. *)

val source_files : string list -> string list
(** Every [.ml] file under the given files/directories (recursing,
    skipping [_build]-like directories), sorted: the files both passes
    must cover. *)

val lint_paths : string list -> report
(** Lints every {!source_files} entry, merging the per-file reports.
    Files are visited in sorted order so the report is deterministic. *)

val exit_code : report -> int
(** [0] when [findings] is empty, [1] otherwise. *)

val report_to_json : paths:string list -> report -> Artifact.json
(** The report wrapped in the standard {!Artifact} envelope
    ([kind = "lint"]); written to [_artifacts/LINT.json] by the CLI. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable [file:line:col: severity rule: message] lines plus a
    one-line summary. *)
