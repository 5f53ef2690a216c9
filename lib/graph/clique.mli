(** Clique algorithms on directed graphs.

    All functions treat "clique" the way the paper does for directed
    graphs: a vertex set in which {e every ordered pair} is an edge.
    Internally they operate on the bidirectional core (the undirected graph
    with an edge wherever both directions exist).

    These are the local, unbounded-computation subroutines the BCAST
    protocols call: the maximum clique of the active subgraph in Theorem
    B.1, the greedy extension step of the naive algorithm mentioned in
    Section 1.2's "Planted Clique" discussion, and the degree-counting
    baseline that succeeds once [k >> sqrt n]. *)

val max_clique : Digraph.t -> int list
(** Maximum clique via Bron-Kerbosch with pivoting.  Exponential in the
    worst case; fast on random graphs and on the [O(n p)]-vertex active
    subgraphs of Theorem B.1. *)

val max_clique_of_subset : Digraph.t -> int list -> int list
(** Maximum clique of the induced (bidirectional) subgraph on the given
    vertices. *)

val greedy_clique : Prng.t -> Digraph.t -> int list
(** Randomized greedy: repeatedly add a random vertex adjacent (both
    directions) to all chosen so far. *)

(** The degree-based recovery pipeline over any {!Graph_backend.S}
    representation: [Recover (Graph_backend.Dense)] on the bit matrix
    (experiment e25), and the identical algorithm text on the CSR at
    n = 10^5+ as [Recover (Graph_backend.Sparse_backend)] (experiments
    e30, e31). *)
module Recover (B : Graph_backend.S) : sig
  val extend_by_majority : B.t -> core:int list -> threshold:float -> int list
  (** The final step of Theorem B.1's algorithm: all vertices
      bidirectionally adjacent to at least [threshold] fraction of [core]
      (core members qualify by convention), by one scan over the core
      rows.  Sorted increasingly. *)

  val top_degree_vertices : B.t -> int -> int list
  (** The [k] vertices of highest total degree (in + out), the classical
      [k = Omega(sqrt n)] baseline, sorted increasingly; all of them when
      [k >= n].  Ties at the [k]-th place are broken as [Array.sort] (a
      heapsort) orders the array of [(degree, vertex)] pairs by
      descending degree.  Raises [Invalid_argument] when [k < 0]. *)

  val degree_recover : B.t -> k:int -> int list
  (** Kucera's [k = Omega(sqrt n)] baseline: take the [k] highest-degree
      vertices, then keep the vertices adjacent to at least 3/4 of the
      current candidate set until a fixed point (budget-capped).  Sorted
      output. *)
end

val log_clique_size_bound : int -> int
(** [~ 2 log2 n], the size above which cliques stop appearing in random
    graphs; Theorem B.1 uses the fact that random graphs have no clique of
    size [10 log n]. *)

(** {1 Classical centralized baselines (Section 1.4's discussion)} *)

val quasi_poly_find : Digraph.t -> seed_size:int -> int list
(** The naive [n^{O(log n)}] algorithm the paper describes: search for a
    clique of size [seed_size ~ c log n] by bounded brute force, then
    extend it greedily to the whole planted clique by majority adjacency.
    Exhaustive over all [C(n, seed_size)] candidate seeds in the worst
    case (keep [seed_size] small); returns the best extension found. *)
