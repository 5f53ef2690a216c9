(** The Broadcast Congested Clique simulator.

    [n] processors with unlimited local computation; computation proceeds
    in synchronous rounds; in each round every processor broadcasts one
    [msg_bits]-wide message to all others (BCAST(1) is [msg_bits = 1],
    BCAST(log n) is [msg_bits = ceil(log2 n)]).  Within a round a processor
    cannot see the other messages of the same round — it sees the full
    transcript of strictly earlier rounds.

    Processors are spawned from a {!protocol} description with a private
    input and a private, metered randomness source; the runner collects the
    transcript, the per-processor outputs, and exact resource usage
    (rounds, broadcast bits, private random bits). *)

module Rand_counter : sig
  (** A metered randomness source.  Every derived draw is accounted in
      bits, which is how the paper's "each processor uses up to [n] random
      bits" statements are checked experimentally. *)

  (** A counter's state is unsynchronised and pinned to the domain that
      created it: any draw from another domain raises [Failure].  Parallel
      trial loops (see [Par]) therefore create counters inside the trial
      body — which [Bcast.run] does — rather than sharing them. *)
  type t

  val make : Prng.t -> t
  val deterministic : unit -> t
  (** A source that raises [Failure] on any draw — spawning protocols with
      it proves they are deterministic. *)

  val of_tape : Bitvec.t -> t
  (** A source that serves the bits of a fixed tape in order and raises
      [Failure] when the tape is exhausted.  The derandomization transform
      of Corollary 7.1 feeds a protocol its pseudo-random bits this way. *)

  val bits_used : t -> int

  val set_owner : t -> int -> unit
  (** Attributes subsequent draws to a processor id in trace events; the
      runners call this, protocol code normally should not. *)

  val bool : t -> bool
  val bits : t -> int -> int
  (** [bits r w]: [w] fresh bits as an integer, [w <= 30]. *)

  val bitvec : t -> int -> Bitvec.t
  val int_below : t -> int -> int
  (** Uniform in [0, bound); accounting charges [ceil(log2 bound)] bits per
      rejection-sampling attempt. *)

  val bernoulli_bits : int
  (** 30 — the exact per-call charge of {!bernoulli}. *)

  val bernoulli : t -> float -> bool
  (** Charged as exactly {!bernoulli_bits} bits (fixed-precision
      threshold comparison); the implementation asserts the charge. *)
end

type 'out processor = {
  send : round:int -> int;
  (** The message to broadcast this round (must fit in [msg_bits]).
      Called exactly once per round, before {!receive} for that round. *)
  receive : round:int -> int array -> unit;
  (** All [n] messages of the round, indexed by sender.  Every processor
      is handed the same array: the simulator's one message buffer of the
      run, valid only during the call and refilled next round.  A
      processor that needs a message later copies it out; the transcript
      keeps its own copy. *)
  finish : unit -> 'out;
  (** The processor's final output, after the last round. *)
}

type 'out instance = {
  spawn : id:int -> input:Bitvec.t -> rand:Rand_counter.t -> 'out processor;
  public : round:int -> int array -> unit;
  (** Steps the run's public state: called once per round with that
      round's messages, after they join the transcript and before any
      {!processor.receive}.  Every message is common knowledge, so a
      function of the transcript that all processors need (the maximum
      clique of Appendix B, the merged components of a sketching
      protocol) is computed here once instead of [n] times.  It sees no
      input and no randomness, opens no span and emits no trace event;
      processors only read the state.  [messages] is the simulator's
      per-run buffer, as in {!processor.receive}: valid only during the
      call, refilled next round, and open to processors' writes, so the
      state must not keep it. *)
}
(** One run of a protocol: its public state, held in the closures of
    [spawn] and [public], and the way to spawn its processors. *)

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  start : n:int -> 'out instance;
  (** Makes the state of one run with [n] processors.  {!run} calls it
      once per run, so per-run state needs no key and no lock even when
      one protocol value runs in several domains at once. *)
}

val spawn_only :
  (id:int -> n:int -> input:Bitvec.t -> rand:Rand_counter.t -> 'out processor) ->
  n:int -> 'out instance
(** [start = spawn_only spawn]: a protocol with no public state. *)

type 'out result = {
  transcript : Transcript.t;
  outputs : 'out array;
  rounds_used : int;
  broadcast_bits : int;
  (** Total bits put on the channel: [rounds * n * msg_bits]. *)
  random_bits : int array;
  (** Private random bits consumed, per processor. *)
}

val run : 'out protocol -> inputs:Bitvec.t array -> rand:Prng.t -> 'out result
(** Executes the protocol synchronously.  [inputs] has length [n]; each
    processor's randomness source is split deterministically from [rand].
    Each round: every processor sends, the round joins the transcript,
    the public state steps, every processor receives. *)

val run_deterministic : 'out protocol -> inputs:Bitvec.t array -> 'out result
(** Like {!run} but processors get a {!Rand_counter.deterministic} source. *)

val msg_bits_for_log_n : int -> int
(** [ceil (log2 n)], the BCAST(log n) message width. *)

(** {1 Combinators} *)

val map_output : ('a -> 'b) -> 'a protocol -> 'b protocol

val with_rounds : int -> 'a protocol -> 'a protocol
(** Override the round budget (e.g. to truncate a protocol, as the
    time-hierarchy experiment does). *)

val sequential : 'a protocol -> 'b protocol -> ('a * 'b) protocol
(** Run the first protocol's rounds, then the second's, on the same
    inputs; outputs are paired.  The phases are independent (the second
    protocol cannot read the first's conclusions — for data-dependent
    chaining write a single protocol).  [msg_bits] must agree. *)

val parallel_pair : 'a protocol -> 'b protocol -> ('a * 'b) protocol
(** Run both protocols simultaneously by packing their messages side by
    side: [msg_bits = b1 + b2], [rounds = max r1 r2] (a finished
    protocol's lane carries zeros).  Models the standard
    bandwidth-for-rounds tradeoff. *)
