(** Transcripts of Broadcast Congested Clique executions.

    A transcript is the full public history of a run: which processor
    broadcast which message at which turn ("a list of all messages sent so
    far as well as who sent which message and when", Section 1.1).  Because
    every message is broadcast, the transcript is common knowledge; it is
    the only channel through which information about private inputs
    spreads, and the object whose distribution the lower bounds control.

    It is stored as one array per round: round [r] is the [r]-th array
    appended, and its index [i] is sender [i].  Turns number the
    broadcasts of all rounds in order. *)

type entry = { turn : int; round : int; sender : int; value : int }
(** One broadcast: [value < 2^msg_bits] sent by [sender] at global [turn],
    during [round]. *)

type t

val empty : msg_bits:int -> t
val msg_bits : t -> int

val check_value : t -> int -> unit
(** Raises [Invalid_argument "Transcript.append: message value out of
    range"] unless [0 <= v < 2^msg_bits]: the check {!append} makes of
    every value, for a caller that checks each one as it goes. *)

val append : t -> int array -> t
(** [append t messages] adds one round, [messages.(i)] sent by
    processor [i], after checking every value with {!check_value}.
    Functional (persistent): the round is copied, so the caller may
    reuse or overwrite [messages], and [t] is unchanged. *)

val length : t -> int
val entries : t -> entry list
(** In chronological order. *)

val entry : t -> int -> entry
(** [entry t i]: the [i]-th broadcast (0-based). *)

val messages_of_round : t -> int -> (int * int) list
(** [(sender, value)] pairs of the given round, chronological. *)

val messages_of_sender : t -> int -> (int * int) list
(** [(turn, value)] pairs broadcast by the given processor. *)

val bit_length : t -> int
(** Total broadcast bits: [length * msg_bits]. *)

val key : t -> string
(** Canonical encoding, suitable as a {!Dist} outcome.  Two transcripts have
    equal keys iff they record the same sequence of (sender, value) pairs
    with the same message width. *)

val prefix : t -> int -> t
(** First [i] broadcasts. *)

val pp : Format.formatter -> t -> unit
