(** Capturing trace events, and their JSONL wire format.

    {!capture} installs an in-memory sink for the duration of a run; the
    JSONL form (one event object per line) is what [bcc_cli trace]
    emits and what the trace replay/diff tooling consumes. *)

val capture : (unit -> 'a) -> 'a * Trace.event list
(** [capture body] runs [body] with a sink installed and returns its
    result with the events it emitted, in emission order (sequence
    numbers start at 0).  The sink is uninstalled however [body]
    returns; on a raise the events are dropped with it. *)

(** {1 Serialization} *)

exception Decode_error of string

val event_to_json : Trace.event -> Artifact.json
val event_of_json : Artifact.json -> Trace.event
(** Inverse of {!event_to_json}; raises {!Decode_error} on malformed
    input. *)

val to_jsonl : Trace.event list -> string
val of_jsonl : string -> Trace.event list
(** Parses the output of {!to_jsonl}; blank lines are skipped. *)
