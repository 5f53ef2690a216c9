(** Linux [/proc] and [/sys] readers for the benchmark's resource
    metrics and host fingerprint.

    The parsers take the file contents as a string so they can be tested
    on fixed text; the readers return [None] (or zeros for {!self_stat})
    where a file is missing, so the benchmark still runs — with empty
    resource columns — on a kernel without them. *)

(** {1 Parsers} *)

type stat = {
  minflt : int;  (** minor page faults of the process so far *)
  majflt : int;  (** major page faults *)
  utime_ticks : int;  (** user CPU time, in clock ticks *)
  stime_ticks : int;  (** system CPU time, in clock ticks *)
}

val parse_stat : string -> stat option
(** Parses [/proc/<pid>/stat].  Fields are counted after the last [')']
    so a command name holding spaces or parentheses cannot shift them. *)

val parse_kb : string -> key:string -> int option
(** The value of a ["Key:   1234 kB"] line, as in [/proc/self/status]
    ([VmRSS], [VmHWM]) and [/proc/meminfo] ([MemTotal],
    [MemAvailable]).  A line without a unit (e.g. [HugePages_Total])
    parses too. *)

val parse_thp : string -> string option
(** The bracketed choice of a [transparent_hugepage/enabled] line:
    ["always [madvise] never"] is [Some "madvise"]. *)

val parse_size : string -> int option
(** A sysfs cache size such as ["107520K"], ["2M"] or ["512"], in
    bytes. *)

(** {1 Readers} *)

val clock_ticks_per_s : int
(** 100: [USER_HZ], fixed by the Linux ABI for [/proc] CPU times. *)

val self_stat : unit -> stat
(** This process's counters; all zero when [/proc/self/stat] is
    unreadable. *)

val self_status_kb : string -> int option
(** A [/proc/self/status] field, e.g. ["VmRSS"], ["VmHWM"]. *)

val meminfo_kb : string -> int option
(** A [/proc/meminfo] field, e.g. ["MemAvailable"]. *)

val thp_mode : unit -> string option

val llc_bytes : unit -> int option
(** The size of CPU 0's highest-level cache. *)
