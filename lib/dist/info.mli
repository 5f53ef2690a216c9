(** Information-theoretic quantities used by the lower-bound proofs.

    Section 2.4 of the paper relies on entropy sub-additivity, the identity
    [I(X;Y) = E_{x~X} D(Y|X=x ‖ Y)] (Fact 2.1), Pinsker's inequality
    (Lemma 2.2), and the binary-entropy estimate of Fact 2.3.  This module
    computes all of them from finite joint distributions so the test suite
    can check the facts numerically and the lemma verifiers can reuse them. *)

val binary_entropy : float -> float
(** [H(p)] in bits for [p] in [0,1]; 0 at the endpoints. *)

val binary_entropy_inv_gap : float -> float
(** For [H(p) >= 0.9], Fact 2.3 states [(1 − H(p)) / (p − 1/2)^2 ∈ [2,3]].
    This evaluates that ratio (caller guards the precondition; [p = 1/2]
    yields the limit value [2 / ln 2 ≈ 2.885]). *)

val marginal_x : ('a * 'b) Dist.t -> 'a Dist.t
val marginal_y : ('a * 'b) Dist.t -> 'b Dist.t

val conditional_entropy : ('a * 'b) Dist.t -> float
(** [H(Y | X)] where the joint is over [(x, y)] pairs. *)

val mutual_information : ('a * 'b) Dist.t -> float
(** [I(X; Y) = H(Y) − H(Y|X)], always >= 0 up to float error. *)

val mutual_information_via_kl : ('a * 'b) Dist.t -> float
(** Fact 2.1's form: [E_{x~X} D(Y|X=x ‖ Y)].  Equal to
    {!mutual_information} up to float error; exposed so tests can confirm
    the identity. *)

val pinsker_bound : 'a Dist.t -> 'a Dist.t -> float
(** The right-hand side [sqrt(D(P‖Q) / 2)] of Pinsker's inequality; always
    an upper bound on [Dist.tv_distance p q]. *)
