(** A process-wide metrics registry.

    Three metric kinds, all named and registered on first use:

    - {b counters}: monotone integer totals (runs, rounds, broadcast bits);
    - {b histograms}: fixed-bucket distributions (broadcast bits per
      round, random bits per processor);
    - {b ratios}: binomial success counts whose snapshots carry the
      Wilson score interval at [z = 1.96], so Monte-Carlo advantage
      estimates come with trustworthy half-widths.

    Handles are cheap mutable records; look them up once and update in
    loops.  {!snapshot} freezes everything, sorted by name, for the
    artifact layer.

    The registry is domain-safe: registration, every handle update,
    {!snapshot} and {!reset} are serialised by one process-wide mutex, so
    parallel trial loops (see [Par]) can update shared handles and the
    merged totals are exact.  See [docs/PARALLELISM.md]. *)

val set_collecting : bool -> unit
(** Turns the simulator's built-in instrumentation on or off (default
    off).  Updates through handles below always apply; this flag only
    gates the hooks inside [Bcast.run], [Unicast.run] and
    [Turn_model.run] so that un-instrumented code pays a single branch. *)

val collecting : unit -> bool

type counter
type histogram
type ratio

val counter : string -> counter
(** Registers (or retrieves) the counter [name].  All registration
    functions raise [Invalid_argument] if the name is already bound to a
    different metric kind. *)

val inc : ?by:int -> counter -> unit

val default_buckets : float array
(** [1, 10, 100, ..., 1e5]. *)

val histogram : ?buckets:float array -> string -> histogram
(** Buckets are strictly increasing upper bounds; an implicit overflow
    bucket is appended.  Defaults to {!default_buckets}. *)

val observe : histogram -> float -> unit

val ratio : string -> ratio
val record : ratio -> success:bool -> unit
val record_many : ratio -> successes:int -> trials:int -> unit

(** Timing lives in [Prof] ([Prof.time], [Prof.span]), which owns the
    repo's one sanctioned monotonic clock; [Metrics] itself is
    clock-free. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Histogram of { buckets : float array; counts : int array; sum : float; count : int }
  | Ratio of {
      successes : int;
      trials : int;
      estimate : float;
      wilson_low : float;
      wilson_high : float;
      half_width : float;
    }

type sample = { name : string; value : value }

val wilson_z : float
(** 1.96 — the z-score used for ratio intervals. *)

val snapshot : unit -> sample list
(** The current state of every registered metric, sorted by name. *)

val reset : unit -> unit
(** Zeroes every registered metric in place.  Handles stay valid and
    registered (names still appear in snapshots, at zero). *)

val samples_to_json : sample list -> Artifact.json
(** The raw snapshot as a JSON object, one member per metric. *)

val snapshot_artifact : ?id:string -> ?seed:int -> unit -> Artifact.json
(** The current snapshot wrapped in the standard [Artifact] envelope
    ([kind = "metrics"], default [id = "snapshot"]). *)

val to_json : unit -> string
(** [snapshot_artifact] pretty-printed — the stable serialization a
    metrics endpoint (e.g. a future [bcc_serve]) hands out without
    reaching into registry internals. *)

val pp : Format.formatter -> sample list -> unit
