(** Subdomains of the hypercube and the distributions the lower bounds
    condition on.

    Section 4 of the paper works with sets [D ⊆ {0,1}^n] of inputs
    consistent with a transcript, and the uniform distributions [U_D] and
    [U_D^C] on [D] and on [{x ∈ D : x_i = 1 ∀ i ∈ C}].  A {!t} is such a
    set, represented explicitly as a membership table so entropy deficits
    and conditional biases can be computed exactly for small [n]. *)

type t

val full : int -> t
(** All of [{0,1}^n]. *)

val of_pred : int -> (int -> bool) -> t
(** [of_pred n mem] with [mem] over integer encodings; must be nonempty. *)

val of_list : int -> int list -> t

val random_subset : Prng.t -> n:int -> keep_prob:float -> t
(** Keep each point independently with probability [keep_prob]; retries
    until nonempty. *)

val random_of_deficit : Prng.t -> n:int -> t:float -> t
(** A random subdomain with entropy deficit approximately [t]:
    [|D| ~ 2^{n-t}] points chosen uniformly without replacement. *)

val arity : t -> int
val size : t -> int
val mem : t -> int -> bool

val deficit : t -> float
(** [n − log2 |D|], the [t] of Lemma 4.3. *)

val forced_ones : t -> int list -> t option
(** [D^S = { x ∈ D : x_i = 1 ∀ i ∈ S }], or [None] if empty. *)

val coordinate_entropy : t -> int -> float
(** [H(X_j)] for [X ~ U_D] — the per-edge entropy that drives the good/bad
    edge classification in Claim 3. *)

val coordinate_one_prob : t -> int -> float
(** [Pr_{X ~ U_D} [X_j = 1]]. *)

val elements : t -> int list
(** Members by integer encoding, increasing. *)
