(** Sparse graphs as compressed sparse rows — the n = 10^5..10^6 regime.

    The dense {!Digraph} bit matrix spends O(n^2) bits whatever the edge
    density; in the sparse regimes the paper's asymptotics actually need
    (planted cliques at [p = n^{-1/2}], the sparse-regime protocols) that
    caps experiments near n = 2^12.  This module stores only the present
    edges: {!Bcc_kern.Spgraph}'s row-offset + sorted-column layout, built
    either from an existing [Digraph] or directly from the G(n, p)
    geometric-skip sampler without ever materializing a dense matrix.

    Sampling is {b stream-identical} to the dense path: {!sample_gnp}
    makes exactly the draws [Gnp.sample_fast] makes, in the same order,
    and {!sample_planted} draws the clique subset first like
    [Planted.sample_planted] — so dense artifact pins are untouched and
    dense/sparse runs on a shared seed sample the same graph
    (test/test_sparse.ml pins both).  Layout, oracle discipline and the
    dense/sparse crossover: docs/PERFORMANCE.md. *)

type t = Bcc_kern.Spgraph.t
(** The kernel-layer CSR, shared so {!Bcc_kern.Spgraph} kernels apply
    directly. *)

val of_digraph : Digraph.t -> t
(** Exact CSR of the dense adjacency (rows come out sorted because
    [Digraph.iter_out] visits ascending).  Not flagged [symmetric], even
    when the digraph is. *)

val to_digraph : t -> Digraph.t
(** Dense twin — the bridge to the dense oracle kernels at small n. *)

val vertex_count : t -> int

val edge_count : t -> int
(** Directed entry count, [Digraph.edge_count]'s convention. *)

val has_edge : t -> int -> int -> bool
(** Galloping row search ({!Bcc_kern.Spgraph.mem}). *)

val out_degree : t -> int -> int

val iter_out : t -> int -> (int -> unit) -> unit
(** Out-neighbours in ascending order. *)

val iter_mutual : t -> int -> (int -> unit) -> unit
(** [iter_mutual t u f]: [f v] for every [v] with [u -> v] and [v -> u],
    ascending.  On a [symmetric] CSR that is the whole row; otherwise
    each out-neighbour is kept only if its row holds [u]
    ({!has_edge}). *)

val count_common_out_neighbors : t -> int -> int -> int
(** [|N(i) ∩ N(j)|] by sorted-merge intersection — the common-neighbor
    distinguisher statistic. *)

val degree_sums : t -> int array
(** Per-vertex out + in degree.  On a [symmetric] CSR (every sampler's
    output) that is twice the row length, read from the offsets in
    O(n).  Otherwise out-degrees come from the offsets and in-degrees
    from one O(m) histogram of the columns (dense [in_degree] is an O(n)
    column scan per vertex), cut into at most 8 slices of at least 2^20
    entries and counted on the [Par] pool; the counts are exact
    integers, so the result is the same at any [BCC_DOMAINS]. *)

val sample_gnp : ?stream_cap:int -> Prng.t -> n:int -> p:float -> t
(** G(n, p) straight into CSR, and the sparse-regime null model:
    [Gnp.sample_fast]'s geometric-skip decode — the skip lengths {e are}
    the column gaps — with the pairs appended to an edge buffer and
    counting-sorted into rows.  Identical PRNG stream, identical graph,
    O(n + m) memory.  The skips are decoded in blocks by
    {!Prng.Block.fill_geometric}; the final block is rewound and
    replayed so the generator ends exactly where the scalar decode would
    (test/test_sparse.ml pins graph and end state against
    [of_digraph (Gnp.sample_fast ...)]).  The CSR build is a direct
    counting-sort scatter below 2^20 pairs and a cache-aware bucketed
    sort above, whose passes run on the [Par] pool (docs/PERFORMANCE.md
    "Batched draws"); both emit the same bytes at any [BCC_DOMAINS].

    The pair stream stores each column in 4 bytes, so [n] must be below
    2^31: a larger [n] raises [Invalid_argument] before anything is drawn
    or allocated.

    [?stream_cap] overrides the initial pair-stream capacity (default:
    binomial mean + 6 sigma) to force the geometric-growth path in
    tests; the sampled graph is identical for any value. *)

val sample_gnp_sharded : Prng.t -> n:int -> p:float -> t
(** Parallel G(n, p) for the n = 10^6 rung: the pair-index walk is cut
    into a fixed number of equal slices (a function of n only, never of
    the pool size), each decoded on its own [Prng.split] child stream by
    a word-level integer-threshold skip decode (no [log] in the hot
    loop), then built into one CSR straight from the per-slice streams
    in slice order.  Byte-identical output at any [BCC_DOMAINS].

    This is a {b new, documented stream}: thresholds
    [round ((1 - (1-p)^k) * 2^53)] invert the geometric CDF at the same
    2^-53 granularity as the float decode, but the bit-level draws
    differ from {!sample_gnp}, and the parent generator is never
    advanced (children derive from [split]).  Requires [n < 2^30].
    Rationale and stream spec: docs/PERFORMANCE.md "Batched draws". *)

val sample_planted_sharded :
  Prng.t -> n:int -> p:float -> k:int -> t * int list
(** {!sample_planted} over the sharded base sampler: clique subset first
    from the parent stream ([Prng.subset], same position as
    {!sample_planted}), then {!sample_gnp_sharded}'s per-shard decode
    (parent untouched), then the same clique splice and one CSR build.
    A clique row whose pairs straddle two shards is gathered from both.
    After the call the parent stream sits exactly one [subset] past
    where it started.  Byte-identical at any [BCC_DOMAINS].  Requires
    [n < 2^30], checked before the subset is drawn. *)

val sample_planted : Prng.t -> n:int -> p:float -> k:int -> (t * int list)
(** Planted clique over the G(n, p) base: clique subset first
    ([Prng.subset], matching [Planted.sample_planted]'s draw order), then
    the {!sample_gnp} pair stream, then one CSR build of that stream with
    the clique spliced in: each clique row becomes a one-row segment
    holding the sorted union of its sampled pairs and the clique members
    above it, and the runs of other rows stay in place as views of the
    decode buffer.  No base CSR is built and no column buffer is copied;
    the result is byte-identical to overlaying the clique on
    {!sample_gnp}'s graph (test/test_sparse.ml keeps that overlay as the
    oracle).  Returns the instance and the planted set.  Requires
    [n < 2^31], as {!sample_gnp} does, checked before the subset is
    drawn. *)
