(** Structured tracing for the simulator and harness.

    A single process-wide sink receives {!event} values ([Sink.capture]
    installs one around a run); with no sink installed ({!enabled} is
    [false]) instrumented code allocates nothing — call sites guard
    construction with [if Trace.enabled () then ...].

    Events carry a logical sequence number, not wall-clock time: running
    the same protocol twice with the same seed yields byte-identical
    traces, which is what makes trace diffing meaningful
    (see [docs/OBSERVABILITY.md]). *)

type payload =
  | Span_start of { name : string }
  | Span_end of { name : string }
      (** The pair [Prof.span] emits around its body, with scope
          ["span"]. *)
  | Spawn of { id : int; n : int; input_bits : int }
      (** Processor [id] of [n] created with an [input_bits]-bit input. *)
  | Finish of { id : int }  (** Processor [id] produced its output. *)
  | Round_start of { round : int; n : int }
  | Round_end of { round : int; n : int; msg_bits : int }
      (** The round put [n * msg_bits] bits on the channel. *)
  | Broadcast of { round : int; sender : int; value : int; msg_bits : int }
      (** One broadcast message: sender, payload value, bit-width. *)
  | Unicast_send of { round : int; sender : int; messages : int; msg_bits : int }
      (** One unicast outbox: [messages] point-to-point values of
          [msg_bits] bits each. *)
  | Turn of { turn : int; speaker : int; bit : bool }
      (** One turn of the sequential turn model. *)
  | Rand_draw of { owner : int; op : string; bits : int }
      (** A randomness draw charged [bits] bits to processor [owner]
          ([-1] when drawn outside a run); [op] names the primitive
          ("bool", "bits", "bitvec"). *)

type event = { seq : int; scope : string; payload : payload }

val enabled : unit -> bool
(** [true] iff a sink is installed.  Guard event construction with this
    so disabled tracing stays allocation-free. *)

val emit : scope:string -> payload -> unit
(** Sends the payload to the installed sink (no-op without one);
    assigns the next sequence number. *)

val set_sink : (event -> unit) -> unit
(** Installs a sink and resets the sequence counter to 0. *)

val clear_sink : unit -> unit
