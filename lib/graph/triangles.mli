(** Triangle counting — the first problem Section 9 nominates for the
    paper's technique ("counting triangles (or K_4s) in random graphs").

    On the bidirectional core of a directed graph: the closed-form
    expectation/variance of the triangle count under [A_rand] and the
    planted-clique excess — the expected-value algebra showing {e why} a
    triangle-based distinguisher fails below [k ~ n^{1/2}] (the excess
    [C(k,3) / 8^{-1} n^{3/2}]-ish z-score crosses 1 only near
    [k = Theta(sqrt n)]).  The exact counts are each backend's
    [count_triangles] and [count_k4] ({!Graph_backend.S}). *)

val expected_random : int -> float
(** [E[triangles]] under [A_rand^n]: [C(n,3) * (1/64)] (each of the three
    undirected edges needs both directions, probability 1/4 each). *)

val stddev_random : int -> float
(** Standard deviation of the triangle count under [A_rand^n], from the
    exact covariance expansion over shared-edge pairs. *)

val planted_excess : n:int -> k:int -> float
(** Expected extra triangles from planting a [k]-clique:
    [C(k,3) * (1 − 1/64)] plus mixed terms with one or two clique edges. *)

val zscore : n:int -> k:int -> float
(** [planted_excess / stddev_random]: the detectability of the triangle
    statistic.  Crosses 1 around [k = Theta(sqrt n)], in line with the
    paper's conjecture that the hard regime extends to [n^{1/2 - eps}]. *)
