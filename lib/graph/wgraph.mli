(** Complete graphs with random edge weights, and minimum spanning trees.

    Section 9 proposes "constructing an MST on a complete graph with
    random weights" as a target distribution.  This module provides the
    substrate: symmetric weight matrices with i.i.d. uniform [0,1)
    weights, Prim's algorithm, and the Frieze ζ(3) law
    ([E[MST weight] → ζ(3) ≈ 1.2020569...]) the experiment checks —
    exactly the kind of sharply-concentrated statistic a BCAST lower bound
    for the problem would have to hide. *)

type t
(** A complete weighted graph on [{0..n-1}]; weights symmetric, diagonal
    0. *)

val random : Prng.t -> int -> t
(** I.i.d. uniform [0,1) weights. *)

val of_weights : float array array -> t
(** Symmetrized copy of the given matrix (upper triangle wins). *)

val mst : t -> (int * int) list
(** Prim's algorithm: the n-1 tree edges, each as [(lo, hi)]. *)

val mst_weight : t -> float

val zeta3 : float
(** ζ(3) = 1.2020569..., the limit of [E[mst_weight]]. *)

val min_incident_weight : t -> int -> float
(** The cheapest edge at a vertex — what a single BCAST(log n) round can
    reveal, and the first Boruvka step. *)

val boruvka_round_components : t -> int
(** Number of components after one Boruvka round (every vertex grabs its
    cheapest edge): at most [n/2], typically much smaller — the round
    structure a distributed MST protocol exploits. *)
