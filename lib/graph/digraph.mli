(** Directed graphs on vertex set [{0..n-1}] as adjacency bit matrices.

    The paper's inputs are matrices [A ∈ {0,1}^{n×n}] with [A_{i,i} = 0];
    processor [i] receives row [i] (its out-neighbourhood indicator).  The
    representation here is exactly that: one {!Bitvec.t} per vertex. *)

type t

val create : int -> t
(** [create n]: n vertices, no edges. *)

val of_matrix : Gf2_matrix.t -> t
(** Uses the matrix as adjacency; diagonal entries are cleared. *)

val to_matrix : t -> Gf2_matrix.t

val vertex_count : t -> int
val has_edge : t -> int -> int -> bool
(** [has_edge g i j]: directed edge [i -> j].  [has_edge g i i] is false. *)

val add_edge : t -> int -> int -> unit
val remove_edge : t -> int -> int -> unit

val unsafe_add_edge : t -> int -> int -> unit
(** [add_edge] without bounds or diagonal checks — the unchecked row
    writer for samplers whose loop structure already guarantees
    [0 <= i, j < n] and [i <> j] (e.g. [Gnp.sample_fast]'s geometric-skip
    decoder).  Violating either precondition corrupts the graph. *)

val out_row : t -> int -> Bitvec.t
(** A copy of vertex [i]'s out-adjacency row — processor [i]'s input. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** Visit vertex [i]'s out-neighbours in ascending order, scanning the
    live row — no {!out_row} copy.  The callback must not mutate the
    graph. *)

val set_out_row : t -> int -> Bitvec.t -> unit
(** Copies the row in; the diagonal bit is cleared. *)

val install_out_row : t -> int -> Bitvec.t -> unit
(** Like {!set_out_row} but takes ownership of the vector instead of
    copying it (the diagonal bit is still cleared); the caller must not
    use the row afterwards.  For samplers that build each row once. *)

val bidirectional_core : t -> Bitvec.t array
(** Row [i] has bit [j] iff both [i -> j] and [j -> i] are present: the
    undirected graph the clique, triangle and Hamiltonicity code runs
    on, built by the packed {!Bcc_kern.Graph.bidirectional_core}. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val edge_count : t -> int

val is_bidirectional_clique : t -> int list -> bool
(** Whether all ordered pairs of distinct vertices in the list are edges —
    the paper's clique predicate for directed graphs. *)

val common_out_neighbors : t -> int -> int -> Bitvec.t
(** Intersection of the two out-rows. *)

val count_common_out_neighbors : t -> int -> int -> int
(** [popcount (common_out_neighbors g i j)] without materializing the
    intersection — the common-neighbor distinguisher statistic. *)

val copy : t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
