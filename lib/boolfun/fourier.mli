(** Fourier analysis on the Boolean cube (Section 2.2 of the paper).

    For [f : {0,1}^n -> R], the Fourier coefficient at a set [S] is
    [f^(S) = E_{x~U_n} f(x) * (-1)^{sum_{i in S} x_i}].  Sets are encoded as
    [n]-bit integer masks (bit [i] set iff [i ∈ S]).  The fast Walsh-
    Hadamard transform computes all [2^n] coefficients in [O(n 2^n)], which
    is what makes the exact verification of Lemma 5.2 feasible up to
    [k ~ 20]. *)

val real_table : Boolfun.t -> float array
(** The function as a [0.0/1.0] array indexed by input encoding. *)

val wht_inplace : float array -> unit
(** In-place Walsh-Hadamard transform (unnormalized): after the call,
    [a.(s) = sum_x a0.(x) * (-1)^{popcount (s land x)}].  The array length
    must be a power of two.  Runs the cache-blocked kernel
    ([Bcc_kern.Wht]); tables of at least [2^16] entries fan the butterfly
    stages out across the domain pool, byte-identically for every
    [BCC_DOMAINS]. *)

val transform : Boolfun.t -> float array
(** All Fourier coefficients: [ (transform f).(s) = f^(S) ] with the
    normalization [E_x], i.e. divided by [2^n].  Computed by the float
    WHT on the 0/1 table, whose intermediates are all integers of
    magnitude at most [2^n] — exact, and bit-identical to the plain
    butterfly. *)

val popcount_parity : int -> bool
(** Parity of the population count of any 63-bit int (16-bit-table
    popcount) — the inner sign computation of {!coefficient}. *)

val coefficient : Boolfun.t -> int -> float
(** [coefficient f s]: the single coefficient at mask [s], computed
    directly in [O(2^n)]. *)

val parseval_gap : Boolfun.t -> float
(** [| E[f(x)^2] − sum_S f^(S)^2 |]; zero up to float error (Parseval). *)

val inverse : int -> float array -> float array
(** [inverse n coeffs] reconstructs the value table from coefficients. *)

(** {1 Influences}

    The influence of coordinate [i] is the probability that flipping bit
    [i] flips the output — the combinatorial quantity Lemma 1.10's
    information-theoretic argument is morally about: a function whose
    output survives single-bit changes cannot signal a planted
    coordinate. *)

val influence : Boolfun.t -> int -> float
(** [Pr_{x~U}[f(x) <> f(x xor e_i)]]. *)

val total_influence : Boolfun.t -> float
(** Sum of the coordinate influences.  Satisfies the spectral identity
    [total_influence f = sum_S |S| * (2 f^(S))^2] for Boolean (0/1-valued)
    [f] under our normalization — property-tested in the suite. *)

val spectral_total_influence : Boolfun.t -> float
(** The right-hand side of the identity, computed from the WHT. *)
