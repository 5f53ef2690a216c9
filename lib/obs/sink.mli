(** Capturing trace events, and their JSONL wire format.

    {!capture} installs an in-memory sink for the duration of a run; the
    JSONL form (one event object per line) is what [bcc_cli trace]
    emits.  Nothing in the repo decodes it: CI compares traces with
    [cmp] and checks their span pairing with a short Python script. *)

val capture : (unit -> 'a) -> 'a * Trace.event list
(** [capture body] runs [body] with a sink installed and returns its
    result with the events it emitted, in emission order (sequence
    numbers start at 0).  The sink is uninstalled however [body]
    returns; on a raise the events are dropped with it. *)

(** {1 Serialization} *)

val event_to_json : Trace.event -> Artifact.json
(** One event as [{"seq", "scope", "event"}], the payload an object
    tagged by its ["type"]. *)

val to_jsonl : Trace.event list -> string
(** One {!event_to_json} object per line, each line ending in a
    newline. *)
