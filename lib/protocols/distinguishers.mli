(** Natural distinguishers for the planted clique decision problem.

    Theorem 4.1 says {e every} low-round BCAST(1) protocol fails to
    distinguish [A_rand] from [A_k] when [k = n^{1/4-eps}].  A lower bound
    cannot be certified by experiment, but its {e shape} can: this module
    implements the distinguishers a practitioner would actually try —
    degree statistics, edge counting, sampled-subgraph clique hunting,
    common-neighbourhood tests — with their exact round costs in
    BCAST(log n), and experiment E5 measures their advantage across [k],
    confirming that each becomes useless exactly where the theory says the
    problem is hard and succeeds where the [k >> sqrt n] algorithms live.

    Each distinguisher is packaged as a [t]: a protocol producing a real
    statistic plus a decision threshold calibrated on [A_rand].  The
    battery is written once, as {!Generic}; the dense API of this module
    is [Generic (Graph_backend.Dense)] plus {!sampled_subgraph_clique}
    and an {!advantage} that samples [Planted]'s [A_rand] and [A_k]. *)

(** The distinguisher battery over any {!Graph_backend.S}.  The sparse
    experiments instantiate it with [Graph_backend.Sparse_backend] and
    the CSR samplers; dense and sparse advantages of the same statistic
    on stream-identical samplers coincide (test/test_sparse.ml). *)
module Generic (B : Graph_backend.S) : sig
  type t = {
    name : string;
    rounds : int;  (** BCAST(log n) rounds consumed. *)
    statistic : Prng.t -> B.t -> float;
        (** The value the protocol's referee computes from the transcript.
            The [Prng.t] covers the protocol's public coins (e.g. which
            vertices to sample); private input access is limited to what
            the stated rounds can broadcast. *)
  }

  val max_out_degree : t
  (** 1 round: every processor broadcasts its out-degree; statistic is the
      maximum.  Detects the clique once [k ~ sqrt(n log n)]. *)

  val total_edges : t
  (** 1 round: out-degrees are broadcast; statistic is their sum (the edge
      count), elevated by [~k^2/4] under [A_k]. *)

  val degree_variance : t
  (** 1 round: sample variance of the out-degrees. *)

  val triangle_count : t
  (** 65 rounds, the [n/4 + 1] BCAST(log n) rounds that exchange the
      bidirectional core at [n = 256], recorded at every [n]: exact
      triangle count of the core, the statistic Section 9 proposes.  Its
      z-score under planting is {!Triangles.zscore}, crossing
      detectability near [k ~ sqrt n]. *)

  val k4_count : t
  (** Same exchange and round count; counts bidirectional K_4s. *)

  val common_neighbors : pairs:int -> t
  (** [max 1 (2 * pairs / 64) + 1] rounds at every [n] (rows of sampled
      vertices are broadcast): maximum over sampled vertex pairs of their
      common out-neighbourhood size, elevated for clique pairs. *)

  val advantage :
    t ->
    sample_rand:(Prng.t -> B.t) ->
    sample_planted:(Prng.t -> B.t) ->
    calibration:int ->
    trials:int ->
    Prng.t ->
    float
  (** Empirical distinguishing advantage: the threshold is set at the
      [1 - 1/sqrt calibration] quantile of the statistic on
      [sample_rand] samples, then
      [advantage = Pr_{planted}[stat > thr] - Pr_{rand}[stat > thr]]
      measured on [trials] fresh samples of each, with the exceedances
      counted by [Bcc_kern.Enum.count_above].  In [[-1, 1]]; ~0 means
      the distinguisher is blind.  The null model is a parameter: in the
      sparse regime it is G(n, p), not G(n, 1/2).

      Trials run in parallel via [Par] with one [Prng.split] child per
      trial; the result depends only on [g]'s seed, never on the domain
      count.  [g] is split, not advanced. *)
end

include module type of Generic (Graph_backend.Dense)

val sampled_subgraph_clique : sample_size:int -> t
(** [sample_size + 1] rounds: a public random set [S] of vertices is
    chosen, its induced subgraph broadcast, and the statistic is the size
    of its maximum clique, compared to the [~2 log2 |S|] of a random
    graph.  Succeeds when the sample catches [Omega(log n)] clique
    vertices. *)

val advantage :
  t -> n:int -> k:int -> calibration:int -> trials:int -> Prng.t -> float
(** [Generic]'s advantage between [A_rand] ([Planted.sample_rand]) and
    [A_k] ([Planted.sample_planted]) on [n] vertices. *)
