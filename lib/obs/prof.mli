(** Hierarchical wall-time profiler.

    [Prof] is the repo's only sanctioned clock ([lib/obs/prof.ml] is the
    single path-scoped exemption to the [det/wall-clock] lint rule) and
    its resource-attribution layer: nestable monotonic-clock spans with
    per-span counters (PRNG bits drawn, broadcast bits, kernel word-ops),
    per-domain pool telemetry, and two
    exporters — a [PROF.json] artifact whose comparison payload carries
    no timings (so artifact diffing still works) and a Chrome/Perfetto
    [trace.json] for flamegraph inspection.

    {b Zero cost when disabled.}  Every instrumentation entry point
    ({!add}, {!span}, {!with_context}) starts with a read of a plain
    [bool ref] ({!span} also reads the trace sink's) and allocates
    nothing on the disabled path; [test/test_prof.ml] pins this with
    [Gc.minor_words] deltas.  With no profiler installed, instrumented
    code behaves — and allocates — exactly as uninstrumented code.

    {b Domain safety.}  Span stacks and aggregation trees live in
    domain-local state ([Domain.DLS]), so [Bcc_par] worker lanes never
    contend: unlike trace sinks, profiling keeps parallel paths
    parallel.  [Par.tabulate] forwards the submitting domain's span path
    to worker lanes ({!current_path} / {!with_context}), so a span
    opened on the caller accrues its workers' time under the same name
    and the merged tree is independent of the domain count.

    {b Determinism.}  Span call counts and the counters are pure
    functions of the seeded computation, so the comparison payload of
    {!to_artifact} is byte-identical across runs and across
    [BCC_DOMAINS] values.  Timings and pool telemetry live in the
    separate [telemetry] section.

    Start/stop/reset must be called from the submitting domain while no
    parallel region is in flight. *)

(** {1 The clock} *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds (a C stub; allocation-free).  The
    one audited wall-clock read in the tree — everything else must time
    through {!time} or spans. *)

val time : (unit -> 'a) -> 'a * float
(** The thunk's result and its monotonic-clock duration in seconds.
    Always available; does not require the profiler to be on. *)

(** {1 Lifecycle} *)

val enabled : unit -> bool
val start : unit -> unit
(** Clears any previous profile and starts collecting. *)

val stop : unit -> unit
(** Stops collecting; the accumulated profile stays readable via
    {!report} / {!to_perfetto} until the next {!start} or {!reset}. *)

val reset : unit -> unit

(** {1 Spans and counters} *)

type counter =
  | Prng_bits  (** bits drawn through [Bcast.Rand_counter] *)
  | Broadcast_bits  (** channel bits of a simulated protocol run *)
  | Word_ops  (** packed-word volume of a [Bcc_kern] kernel call *)

val counter_name : counter -> string

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span named [name], the repo's one
    span API.  While profiling, the span nests under the current one
    and accrues [f]'s wall time, a call and the counters {!add}ed inside
    it.  While a trace sink is installed, [f] is bracketed by a
    [Trace.Span_start]/[Trace.Span_end] pair with scope ["span"].  Both
    close however [f] returns, raises included.  With neither on, this
    is [f ()]. *)

val add : counter -> int -> unit
(** Adds to the counter of the innermost open span on this domain (the
    synthetic root when none is open).  No-op when disabled. *)

(** {1 Pool integration (used by [Bcc_par])} *)

val current_path : unit -> string list
(** Names of the open spans on this domain, outermost first. *)

val with_context : string list -> (unit -> 'a) -> 'a
(** Runs [f] with the given span path re-opened as {e context} frames:
    they accrue wall time (so a span's workers' time merges under the
    submitting domain's node) but not calls, keeping call counts
    independent of the domain count. *)

val lane_report : lane:int -> busy_ns:int -> wait_ns:int -> items:int -> unit
(** One lane's telemetry for one pool job: time spent running bodies,
    time between job submission and the lane starting, items claimed. *)

val job_report : wall_ns:int -> unit
(** One pool job's wall time as measured on the submitting domain. *)

(** {1 Reports and exporters} *)

type node = {
  name : string;
  calls : int;
  total_ns : int;  (** inclusive, summed across domains *)
  self_ns : int;  (** [total_ns] minus the children's [total_ns] *)
  counters : (string * int) list;  (** nonzero counters, sorted by name *)
  children : node list;  (** sorted by name *)
}

type lane_stat = {
  lane : int;
  jobs : int;
  busy_ns : int;
  wait_ns : int;
  items : int;
}

type report = {
  spans : node list;  (** merged top-level spans, sorted by name *)
  root_counters : (string * int) list;
      (** counters charged outside any span *)
  lanes : lane_stat list;  (** pool telemetry, sorted by lane *)
  pool_jobs : int;
  pool_wall_ns : int;
  dropped_events : int;
}

val report : unit -> report
(** Merges every domain's tree (by span path, children sorted by name).
    Call only after parallel regions have completed. *)

val sum_self_ns : report -> int

val comparison_json : report -> Artifact.json
(** The deterministic half of the profile: span names, call counts and
    counters — no timings. *)

val to_artifact : id:string -> ?seed:int -> report -> Artifact.json
(** The [PROF.json] envelope: [payload.comparison] (diffable) plus
    [payload.telemetry] (timings, pool lanes). *)

val to_perfetto : unit -> string
(** The recorded span events as Chrome trace-event JSON (matched
    ["B"]/["E"] pairs, microsecond timestamps, one [tid] per domain).
    Load it at https://ui.perfetto.dev or chrome://tracing. *)

val pp_report : ?top:int -> Format.formatter -> report -> unit
(** Human-readable span tree (total / self / calls / counters) followed
    by a top-[top] (default 10) self-time table and pool telemetry. *)
