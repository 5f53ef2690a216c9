(** Distinguishing-advantage estimation for protocols and samplers.

    The paper's definition (footnote 5): an algorithm distinguishes [D1]
    from [D2] with advantage [eps] if, given a sample from a fair mixture,
    it guesses the source with probability [1/2 + eps].  For a Boolean
    test that equals [ (Pr_{D1}[accept] - Pr_{D2}[accept]) / 2 ]; the
    functions here report the acceptance-probability gap
    [Pr_{D1} - Pr_{D2}] itself, whose vanishing is what the theorems
    assert. *)

val protocol_gap :
  bool Bcast.protocol ->
  sample_yes:(Prng.t -> Bitvec.t array) ->
  sample_no:(Prng.t -> Bitvec.t array) ->
  trials:int ->
  Prng.t ->
  float
(** [Pr[out_0 = true | yes] - Pr[out_0 = true | no]], each estimated on
    [trials] runs.  Trials run in parallel via [Par] with one
    [Prng.split] child per trial, so the gap depends only on [g]'s seed,
    never on the domain count. *)

val transcript_tv_sampled :
  Turn_model.protocol ->
  sample_a:(Prng.t -> Bitvec.t array) ->
  sample_b:(Prng.t -> Bitvec.t array) ->
  samples:int ->
  Prng.t ->
  float
(** Empirical TV distance between the transcript distributions under the
    two input samplers.  Upward-biased by sampling noise; compare against
    a same-sampler control ({!transcript_tv_control}). *)

val transcript_tv_control :
  Turn_model.protocol -> sample:(Prng.t -> Bitvec.t array) -> samples:int -> Prng.t -> float
(** The TV estimate between two independent histogram draws from the
    {e same} sampler — the noise floor of {!transcript_tv_sampled}. *)

val best_threshold_advantage :
  statistic_a:float array -> statistic_b:float array -> float
(** The advantage of the best single-threshold test on the two empirical
    statistic samples (maximized over thresholds and direction); an
    estimate of the distinguishing power a statistic carries. *)
