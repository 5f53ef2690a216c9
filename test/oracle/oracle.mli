(** Naive reference oracles for the [Bcc_kern] kernels.

    Each function is the implementation a packed kernel replaced, kept as
    its specification: the kernel tests check every kernel against its
    oracle, and [bench] times both sides of each pair and re-checks their
    agreement in every run (docs/PERFORMANCE.md).  Test- and bench-side
    only: no library under [lib/] links this one. *)

val popcount_swar : int64 -> int
(** SWAR popcount — oracle for the 16-bit-table [Bitvec.popcount]. *)

val rank_rows : Bitvec.t array -> int
(** Full Gauss-Jordan on Bitvec rows with per-bit pivot probing — the
    pre-kernel [Gf2_matrix.rank]. *)

val rank_bools : bool array array -> int
(** Scalar elimination over bools — the fully naive rank. *)

val mul_rows : Bitvec.t array -> Bitvec.t array -> cols:int -> Bitvec.t array
(** Row-at-a-time xor-accumulate product — the pre-M4RM
    [Gf2_matrix.mul]; [cols] is the column count of [b]. *)

val transpose_rows : Bitvec.t array -> cols:int -> Bitvec.t array
(** Per-bit transpose. *)

val wht : float array -> float array
(** Direct O(4^n) transform. *)

val wht_butterfly : float array -> unit
(** Plain in-place doubling butterfly — the pre-kernel
    [Fourier.wht_inplace]. *)

val count_true : n:int -> (int -> bool) -> int
val count_forced_ones : n:int -> mask:int -> (int -> bool) -> int
val count_flips : n:int -> i:int -> (int -> bool) -> int
val count_above : float array -> threshold:float -> int

(** {2 Graph oracles} — the pre-[Bcc_kern.Graph] implementations. *)

val popcount_and2 : Bitvec.t -> Bitvec.t -> int
val popcount_and3 : Bitvec.t -> Bitvec.t -> Bitvec.t -> int
val popcount_and2_above : Bitvec.t -> Bitvec.t -> above:int -> int
(** Materializing oracles for the fused [Bitvec] popcounts. *)

val bidirectional_core : Bitvec.t array -> Bitvec.t array
(** Per-bit [A land A^T] with a closure per entry. *)

val max_clique : Bitvec.t array -> Bitvec.t -> int list
(** The allocating Bron-Kerbosch (fresh vectors per node). *)

val count_triangles : Bitvec.t array -> int
val count_k4 : Bitvec.t array -> int
(** Triangle/K4 counts with fresh intersection vectors and a fresh
    suffix mask per inner iteration. *)

(** {2 Recovery oracles} *)

val top_degree_vertices : int array -> int -> int list
(** [top_degree_vertices degree_sums k]: the pre-histogram top-[k]
    selection — [Array.sort] (a heapsort) of every [(degree, vertex)]
    pair by descending degree, the first [k] kept, sorted by vertex.
    Its tie-breaking at the [k]-th place is the one
    [Clique.Recover.top_degree_vertices] reproduces. *)
