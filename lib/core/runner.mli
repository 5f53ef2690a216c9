(** Named protocol configurations for observability tooling.

    [bcc_cli trace <name>] and [bcc_cli metrics] run these with a sink or
    the metrics registry attached.  Every entry fixes all parameters
    except the PRNG seed, so a (name, seed) pair determines the run — and
    with it the trace, byte for byte. *)

type summary = {
  protocol : string;  (** The protocol's self-reported name. *)
  model : string;  (** "bcast", "unicast" or "turn". *)
  n : int;
  msg_bits : int;
  rounds_used : int;
  channel_bits : int;
      (** Broadcast bits for BCAST, total channel bits for unicast,
          turns for the turn model. *)
  random_bits : int array;  (** Per-processor private random bits. *)
  transcript_length : int;
}

val names : string list
(** The known protocol names. *)

val describe : string -> string option

val run : name:string -> seed:int -> summary
(** Runs the named configuration (with whatever sink/metrics state is
    currently installed).  Raises [Invalid_argument] on unknown names. *)

val run_replicas : name:string -> seed:int -> replicas:int -> summary array
(** [replicas] independent runs of the named configuration, replica [i]
    seeded with [seed + i], fanned out across domains by [Par] (metrics
    handles merge under the registry's lock; with a trace sink installed
    the replicas run sequentially so the event stream stays coherent).
    The array is in replica order and identical for every domain count.
    Raises [Invalid_argument] on unknown names or [replicas < 1]. *)

val trace : name:string -> seed:int -> Trace.event list * summary
(** Runs with a fresh memory sink installed; returns the captured events
    in emission order. *)

val summary_to_json : summary -> Artifact.json

val trace_artifact : name:string -> seed:int -> Artifact.json
(** The full trace as an artifact: envelope + summary + events, each
    event as [Sink.event_to_json] encodes it. *)
