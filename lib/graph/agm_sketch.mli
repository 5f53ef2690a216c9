(** XOR linear sketches for edge-incidence vectors (AGM-style).

    Section 9 names "graph connectivity" as a target problem.  The
    standard distributed/streaming tool is the Ahn-Guha-McGregor linear
    sketch: a vertex's edge-incidence vector is compressed to
    [O(log^2 n)] bits such that (1) sketches are {e linear} — the sketch
    of a component's cut is the XOR of its members' sketches, because
    internal edges cancel — and (2) a nonzero sketched vector yields one
    of its coordinates with constant probability (1-sparse recovery over
    geometrically subsampled levels).

    The hash functions are derived from a public seed, so in the
    Broadcast Congested Clique all processors agree on them without
    communication (public coins); sketches travel as bit vectors. *)

type params = { universe : int; seed : int }
(** [universe]: number of coordinates (edge slots); [seed]: public seed
    defining the level hash and checksums. *)

type t
(** A sketch; mutable accumulator. *)

val create : params -> t
(** The sketch of the zero vector. *)

val levels : params -> int
(** [ceil(log2 universe) + 2] subsampling levels. *)

val add : t -> int -> unit
(** XOR coordinate [i] into the sketched vector ([0 <= i < universe]).
    Adding twice cancels. *)

val xor_inplace : t -> t -> unit
(** [xor_inplace dst src]: linearity — dst becomes the sketch of the XOR
    of the two vectors.  Same params required. *)

val recover : t -> int option
(** A coordinate of the sketched vector, if some level is 1-sparse and
    passes the checksum.  [None] for the zero vector or on failure
    (constant probability per nonzero vector). *)

val is_zero : t -> bool
(** True iff every level is empty — for sketches of actual vectors this
    means the vector is zero (no false negatives; false positives would
    require checksum collisions). *)

val bit_size : params -> int
(** Size of the broadcast encoding: [levels * (id_bits + 32)] bits. *)

val to_bitvec : t -> Bitvec.t
val of_bitvec : params -> Bitvec.t -> t
(** Broadcast encoding round-trip. *)
