(** Packed bit vectors over GF(2).

    A [Bitvec.t] is a fixed-length sequence of bits stored in [int64] words.
    It is the base currency of the whole library: processor inputs, rows of
    adjacency matrices, broadcast messages, and PRG outputs are all bit
    vectors.  Unless stated otherwise, operations on two vectors require the
    vectors to have the same length and raise [Invalid_argument] otherwise.

    Vectors are mutable; functions ending in [_inplace] mutate their first
    argument, everything else returns a fresh vector. *)

type t

(** {1 Construction} *)

val create : int -> t
(** [create len] is the all-zeros vector of length [len].  [len >= 0]. *)

val init : int -> (int -> bool) -> t
(** [init len f] sets bit [i] to [f i]. *)

val copy : t -> t

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val of_int : width:int -> int -> t
(** [of_int ~width v] is the low [width] bits of [v], bit [i] being
    [(v lsr i) land 1].  Requires [0 <= width <= 62]. *)

val to_int : t -> int
(** Inverse of [of_int]; requires [length <= 62]. *)

val of_string : string -> t
(** [of_string "0110"] has bit 0 = '0', bit 1 = '1', ... Raises
    [Invalid_argument] on characters other than '0' and '1'. *)

val to_string : t -> string

val ones : int -> t
(** [ones len] is the all-ones vector. *)

(** {1 Access} *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit

(** {1 Bulk operations} *)

val xor : t -> t -> t
val xor_inplace : t -> t -> unit
(** [xor_inplace dst src] sets [dst <- dst xor src]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val lognot : t -> t

val popcount : t -> int
(** Number of set bits (16-bit table lookup per half-word). *)

(** {2 No-alloc combinators}

    Word-level fused operations for the packed graph kernels
    ({!Bcc_kern.Graph}): they write into caller-owned scratch or return an
    [int], so hot inner loops (triangle counting, Bron-Kerbosch) allocate
    nothing.  All operands must share one length. *)

val popcount_and2 : t -> t -> int
(** [popcount_and2 a b = popcount (logand a b)], without the intermediate
    vector. *)

val popcount_and3 : t -> t -> t -> int
(** [popcount_and3 a b c = popcount (logand (logand a b) c)]. *)

val popcount_and2_above : t -> t -> above:int -> int
(** [popcount_and2_above a b ~above]: set bits of [logand a b] at indices
    strictly greater than [above] — the suffix-masked intersection count
    of the triangle/K4 kernels, with the mask applied word-wise instead of
    materialized. *)

val assign : t -> t -> unit
(** [assign dst src] copies [src]'s bits into [dst]. *)

val logand_into : dst:t -> t -> t -> unit
(** [logand_into ~dst a b] sets [dst <- logand a b]; [dst] may alias [a]
    or [b]. *)

val logandnot_into : dst:t -> t -> t -> unit
(** [logandnot_into ~dst a b] sets [dst <- logand a (lognot b)]; [dst] may
    alias [a] or [b]. *)

val popcount_int : int -> int
(** Population count of a nonnegative OCaml int, via the same 16-bit
    table.  Raises [Invalid_argument] on negative input. *)

val popcount_word : int64 -> int
(** Population count of a raw [int64] word — exposed for the packed
    kernels in [Bcc_kern]. *)

val is_zero : t -> bool

val first_set : t -> int
(** Index of the lowest set bit, or [-1] if the vector is zero. *)

val dot : t -> t -> bool
(** GF(2) inner product: parity of [popcount (logand a b)]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Slicing and concatenation} *)

val sub : t -> pos:int -> len:int -> t
val concat : t -> t -> t
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** {1 Iteration} *)

val iteri : (int -> bool -> unit) -> t -> unit
val fold_left : ('a -> bool -> 'a) -> 'a -> t -> 'a
val iter_set : (int -> unit) -> t -> unit
(** [iter_set f v] calls [f i] for every set bit [i], in increasing order. *)

val indices_set : t -> int list
(** Positions of set bits, increasing. *)

val map : (bool -> bool) -> t -> t

(** {1 Support operations} *)

val set_indices : t -> int list -> unit
(** Set the given positions to 1. *)

val restrict_ones : t -> int list -> bool
(** [restrict_ones v is] is [true] iff every position in [is] is set. *)

(** {1 Word access}

    Raw access to the packed [int64] words, for the bit-sliced kernels in
    [Bcc_kern].  Bit [i] of the vector is bit [i mod 64] of word [i / 64].
    Garbage bits above [length] are maintained as zero: [set_word] on the
    last word masks them off. *)

val word_length : t -> int
val get_word : t -> int -> int64
val set_word : t -> int -> int64 -> unit

val unsafe_get_word : t -> int -> int64
(** [get_word] with no bounds check — the row reader behind the packed
    kernel loaders ([Bcc_kern.Gf2.pack], the Bron-Kerbosch row copy).  The
    caller must guarantee [0 <= i < word_length v]. *)

val unsafe_set_bit : t -> int -> unit
(** [unsafe_set_bit v i] sets bit [i] to 1 with no bounds check — the
    unchecked row writer behind [Gnp.sample_fast]'s geometric-skip
    decoder.  The caller must guarantee [0 <= i < length v]. *)

val pp : Format.formatter -> t -> unit
