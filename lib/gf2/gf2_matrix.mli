(** Dense matrices over GF(2), stored as one {!Bitvec.t} per row.

    These back three parts of the paper: the input matrices [A] whose [i]-th
    row is processor [i]'s input; the PRG's secret matrix [M] of Theorem 1.3
    with the product [x^T M]; and the full-rank indicator of Theorems 1.4/1.5
    (rank over GF(2) via Gaussian elimination). *)

type t

(** {1 Construction} *)

val create : rows:int -> cols:int -> t
(** All-zeros matrix. *)

val init : rows:int -> cols:int -> (int -> int -> bool) -> t
val identity : int -> t
val of_rows : Bitvec.t array -> t
(** Rows are copied; they must all have the same length. *)

val random : Prng.t -> rows:int -> cols:int -> t

(** {1 Access} *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> bool
val set : t -> int -> int -> bool -> unit
val row : t -> int -> Bitvec.t
(** A copy of row [i]. *)

val set_row : t -> int -> Bitvec.t -> unit

(** {1 Algebra} *)

val mul : t -> t -> t
(** Matrix product over GF(2); [cols a = rows b].  Computed by the packed
    Method-of-Four-Russians kernel ([Bcc_kern.Gf2.mul]): one flat scratch
    buffer, no per-row [Bitvec] accumulation. *)

val vec_mul : Bitvec.t -> t -> Bitvec.t
(** [vec_mul x m] is the row-vector product [x^T M] — the PRG expansion map
    of Theorem 1.3.  [Bitvec.length x = rows m]. *)

val mul_vec : t -> Bitvec.t -> Bitvec.t
(** [mul_vec m x] is [M x]. *)

val transpose : t -> t
val add : t -> t -> t
(** Entrywise xor. *)

val equal : t -> t -> bool

(** {1 Elimination} *)

val rank : t -> int
(** Rank over GF(2) (row-reduction on a scratch copy). *)

val is_full_rank : t -> bool
(** The indicator [F_full-rank] of Theorem 1.4 for square matrices; for
    rectangular matrices, whether rank equals [min rows cols]. *)

val row_echelon : t -> t * int
(** [(r, rank)] where [r] is a row-echelon form of the input. *)

val kernel_vector : t -> Bitvec.t option
(** A nonzero vector [x] with [M x = 0], if one exists ([cols]-dimensional). *)

val solve : t -> Bitvec.t -> Bitvec.t option
(** [solve m b] finds [x] with [M x = b], if consistent. *)

val rank_of_top_left : t -> int -> int
(** [rank_of_top_left m k]: rank of the top-left [k*k] submatrix — the
    hierarchy function of Theorem 1.5. *)

val determinant : t -> bool
(** Over GF(2) the determinant is a bit: [true] iff a square matrix has
    full rank. *)

val inverse : t -> t option
(** Inverse of a square matrix, if it exists (Gauss-Jordan on [M | I]). *)

(** {1 Structured random matrices} *)

val random_of_rank_at_most : Prng.t -> n:int -> r:int -> t
(** An [n*n] matrix sampled as [L*R] with [L] uniform [n*r] and [R] uniform
    [r*n]; its rank is at most [r]. *)
