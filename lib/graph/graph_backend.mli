(** The dense/sparse representation seam.

    {!S} is the slice of graph functionality the recovery algorithms and
    distinguisher statistics actually consume; [Clique.Recover] and
    [Distinguishers.Generic] are functors over it, so the same algorithm
    text runs on the O(n^2)-bit {!Digraph} matrix and on the O(n + m)
    {!Sparse} CSR.  The dense recovery, distinguisher battery and
    triangle/K4 counts are the {!Dense} instances; test/test_sparse.ml
    pins dense == sparse results on shared-seed graphs at n <= 512. *)

module type S = sig
  type t

  val vertex_count : t -> int

  val edge_count : t -> int
  (** Directed edge count ([Digraph.edge_count]'s convention). *)

  val has_edge : t -> int -> int -> bool
  val out_degree : t -> int -> int

  val iter_mutual : t -> int -> (int -> unit) -> unit
  (** [iter_mutual g u f]: [f v] for every [v] with [u -> v] and
      [v -> u], ascending; the callback must not mutate the graph. *)

  val count_common_out_neighbors : t -> int -> int -> int

  val degree_sums : t -> int array
  (** Per-vertex out + in degree — the top-degree recovery statistic. *)

  val count_triangles : t -> int
  (** Triangle count {e of the bidirectional core}, the statistic whose
      null moments {!Triangles} gives in closed form. *)

  val count_k4 : t -> int
  (** K4 count of the bidirectional core. *)
end

module Dense : S with type t = Digraph.t
(** The bit-matrix backend: degree sums by row popcount + column scan,
    mutual neighbours by an out-row scan with a reverse-edge test,
    triangles/K4 via the packed {!Bcc_kern.Graph} kernels on
    [Digraph.bidirectional_core]. *)

module Sparse_backend : S with type t = Sparse.t
(** The CSR backend: merge/gallop row ops and the sharded
    {!Bcc_kern.Spgraph} kernels.  On a [symmetric] CSR, degree sums and
    mutual neighbours read the rows alone ({!Sparse.degree_sums},
    {!Sparse.iter_mutual}). *)
