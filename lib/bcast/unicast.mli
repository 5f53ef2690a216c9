(** The unicast Congested Clique — the stronger sibling model of §1.2.

    In the unicast model a processor may send a {e different} message to
    each other processor in a round (footnote 4 of the paper).  Lower
    bounds here would imply circuit lower bounds [DKO14]; the paper
    contrasts it with the broadcast model throughout.  This simulator
    mirrors {!Bcast} with per-recipient messages, so broadcast protocols
    can be compared against unicast baselines (see {!Unicast_clique} in
    the protocols library) at equal accounting rigor.

    In each round processor [i] produces an [n]-vector of [msg_bits]-wide
    values, and receives the [n]-vector of what everyone sent {e to it}. *)

type 'out processor = {
  send : round:int -> int array;
  (** [send ~round].(j) is this round's message to processor [j] (the
      entry at the sender's own index is ignored). *)
  receive : round:int -> int array -> unit;
  (** [receive ~round inbox]: [inbox.(j)] is what processor [j] sent to
      this processor. *)
  finish : unit -> 'out;
}

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  spawn : id:int -> n:int -> input:Bitvec.t -> rand:Bcast.Rand_counter.t -> 'out processor;
}

type 'out result = {
  outputs : 'out array;
  rounds_used : int;
  channel_bits : int;  (** Total bits sent: [rounds * n * (n-1) * msg_bits]. *)
  random_bits : int array;
}

val run : 'out protocol -> inputs:Bitvec.t array -> rand:Prng.t -> 'out result

val run_deterministic : 'out protocol -> inputs:Bitvec.t array -> 'out result

val lift_broadcast : 'out Bcast.protocol -> 'out protocol
(** Every broadcast protocol is a unicast protocol that happens to send
    the same value to everyone.  Unicast has no shared channel, so each
    lifted processor starts and steps its own copy of the public state. *)
