(** Machine-readable run artifacts.

    Every artifact the repo emits — experiment tables, micro-benchmark
    results, protocol traces — is a JSON document wrapped in a common
    envelope carrying {!schema_version}, the PRNG seed, the generating
    parameters, and a [git describe] of the producing tree.  The
    serializer is deterministic: the same value always prints to the same
    bytes, so traces and artifacts can be diffed textually.
    [docs/OBSERVABILITY.md] documents the format. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val schema_version : int

val to_string : ?pretty:bool -> json -> string
(** Deterministic serialization; [NaN] prints as [null], floats print in
    the shortest form that round-trips through [float_of_string]. *)

exception Parse_error of string

val of_string : string -> json
(** Parses a complete JSON document; raises {!Parse_error} otherwise.
    [to_string] and [of_string] round-trip exactly (object field order is
    preserved). *)

val member : string -> json -> json option
(** [member key (Obj fields)] is the first binding of [key]. *)

val to_int_opt : json -> int option
val to_string_opt : json -> string option
val to_float_opt : json -> float option
(** [Int] values coerce to float. *)

val to_list_opt : json -> json list option

val git_describe : unit -> string
(** [git describe --always --dirty], or ["unknown"] outside a checkout. *)

val make :
  kind:string -> id:string -> ?seed:int -> ?params:(string * json) list ->
  json -> json
(** [make ~kind ~id ?seed ?params payload] wraps [payload] in the common
    envelope ([kind] is e.g. ["experiment"], ["bench"], ["trace"]). *)

val default_dir : string
(** ["_artifacts"], the conventional output directory (gitignored). *)

val ensure_dir : string -> unit
(** Creates the directory and any missing parents.  Raises [Sys_error]
    naming the directory when that fails or it is not a directory (a
    parent that is a file, no permission), so a command can check its
    output directory before it runs. *)

val write_text : path:string -> string -> unit
(** Writes [text] to [path] after {!ensure_dir} on its directory: every
    file the repo's tools write goes through here.  Raises [Sys_error]
    on any failure. *)

val write_file : path:string -> json -> unit
(** {!write_text} of the pretty-printed value and a final newline. *)

val read_file : path:string -> json
