(** The paper's input distributions on directed graphs (Section 1.3).

    [A_rand] — each off-diagonal entry an independent fair coin.
    [A_C]    — [A_rand] conditioned on the vertex set [C] being a
               (bidirectional) clique.
    [A_k]    — a uniform size-[k] set [C] is drawn, then [A_C].

    Samplers return both the graph and, where applicable, the planted set,
    so search experiments can score recovery. *)

val sample_rand : Prng.t -> int -> Digraph.t
(** A sample of [A_rand^n]. *)

val sample_planted_at : Prng.t -> int -> int list -> Digraph.t
(** [sample_planted_at g n c]: a sample of [A_C^n]. *)

val sample_planted : Prng.t -> n:int -> k:int -> Digraph.t * int list
(** A sample of [A_k^n] together with the planted set. *)

type instance =
  | Uniform of Digraph.t
  | Planted of Digraph.t * int list
      (** The decision problem's two cases, each drawn with probability 1/2
          by {!sample_instance}. *)

val sample_instance : Prng.t -> n:int -> k:int -> instance

val is_planted : instance -> bool

val interesting_k_range : int -> int * int
(** [(lo, hi)] ≈ [(log2 n, sqrt n)]: below [lo] random cliques of that size
    occur naturally; above [hi] degree counting finds the clique (Section
    1.2's discussion). *)
