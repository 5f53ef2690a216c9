(** The paper's relaxed sequential-turn model (Section 3, "A Relaxation").

    Instead of [j] synchronous rounds there are [j*n] turns; on turn [t]
    (0-based) processor [t mod n] broadcasts a single bit, conditioning on
    {e all} earlier broadcasts, including those of the current round.  This
    model is at least as strong as BCAST(1), so lower bounds proved against
    it carry over; the experiments therefore measure transcript
    distributions in this model.

    Processors are deterministic (Yao's principle): processor [i] is a
    function [f_i(input, history)] of its private input and the public
    history, exactly the f_i|p functions of the paper. *)

type protocol = {
  n : int;
  turns : int;
  next_bit : id:int -> input:Bitvec.t -> history:bool array -> bool;
      (** [history] holds the bits of turns [0 .. t-1] when computing turn
          [t]'s bit. *)
}

val of_round_protocol :
  n:int -> rounds:int -> (id:int -> input:Bitvec.t -> history:bool array -> bool) -> protocol
(** [turns = rounds * n]. *)

val run : protocol -> inputs:Bitvec.t array -> bool array
(** The full transcript. *)

val transcript_key : bool array -> string

val exact_transcript_dist : protocol -> Bitvec.t array Dist.t -> string Dist.t
(** The pushforward [P(Pi, D)]: exact transcript distribution when the
    (joint) input is drawn from the given finite distribution. *)

val sampled_transcript_dist :
  protocol -> sample:(Prng.t -> Bitvec.t array) -> samples:int -> Prng.t -> string Dist.t
(** Empirical transcript distribution from [samples] independent runs. *)

val consistent_inputs :
  protocol -> id:int -> history:bool array -> upto_turn:int -> Bitvec.t list -> Bitvec.t list
(** The set [D_p]: inputs (from the given candidate list) for which
    processor [id]'s broadcasts agree with [history] on every turn
    [< upto_turn] where [id] spoke.  Used by the Claim 2/4 experiments. *)

val acceptance_probability :
  protocol -> accept:(bool array -> bool) -> Bitvec.t array Dist.t -> float
(** Probability the transcript predicate accepts under the input
    distribution (exact). *)
