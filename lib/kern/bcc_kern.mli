(** Packed bit-sliced compute kernels for the hot paths.

    Three families, each operating on packed [int64] words: {!Gf2} (block
    transpose, word-parallel elimination, Method-of-Four-Russians
    multiply) behind [Gf2_matrix]; {!Enum} (packed truth tables, 64
    inputs per word) behind [Boolfun]'s exact-enumeration expectations
    and the batched distinguisher trials; {!Wht} (cache-blocked, optionally
    domain-parallel butterflies) behind [Fourier].

    Hot storage is {!Buf}: Bigarray-backed buffers whose elements are
    unboxed, so the kernel inner loops run without minor-heap allocation
    or GC write barriers (an [int64 array] boxes every store).

    The naive implementations live outside the library, in test/oracle,
    as reference oracles: every kernel is property-tested against its
    oracle (test/test_kern.ml) and benchmarked against it (`bench kern`,
    docs/PERFORMANCE.md).

    All kernels are deterministic; the only parallel path ({!Wht} on
    tables >= [par_threshold]) partitions elementwise-disjoint butterfly
    groups across the [Par] pool, so results are byte-identical for every
    [BCC_DOMAINS]. *)

val ctz : int -> int
(** Count of trailing zeros; raises [Invalid_argument] on 0. *)

(** GC-invisible flat buffers for the kernel inner loops.

    [i64]/[ints]/[i32] are C-layout [Bigarray.Array1] values: element access
    compiles to one unboxed load or store — no boxed [Int64] cells, no
    write barrier, nothing for the minor GC to scan.  Accessors are
    {b unchecked}; callers own their indices (the word-boundary property
    tests in test/test_kern.ml pin the semantics against the [Bitvec]
    oracles).  Creation zero-fills, except {!int_create_uninit} and
    {!i32_create_uninit}. *)
module Buf : sig
  type i64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** Native-int buffer ({!Spgraph}'s column arrays): [Bigarray.int]
      elements are unboxed 63-bit ints, so — unlike the int32/int64
      kinds — loads need no boxing even without flambda, and a 10^7-entry
      buffer is still invisible to the GC. *)

  val i64_create : int -> i64
  val int_create : int -> ints

  val int_create_uninit : int -> ints
  (** {!int_create} without the zero-fill — only for buffers whose every
      slot is written before any read (e.g. a CSR fill pass whose cursor
      prefix sums partition the buffer exactly); reading an unwritten
      slot is unspecified garbage.  Since that write touches every page,
      a buffer of 32 MB or more is advised onto transparent huge pages
      ([madvise(MADV_HUGEPAGE)] on its page-aligned interior), so its
      first touch faults 2 MB at a time instead of 4 KB.  The advice is
      invisible to callers: errors are ignored, it is a no-op where the
      call does not exist, and the buffer is allocated and freed as
      before. *)

  type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** 4-byte buffer for values below 2^31 (the samplers' pair streams):
      half the memory of {!ints}.  Read it as
      [Int32.to_int (i32_get b i)] and write it as
      [i32_set b i (Int32.of_int x)]: consumed at once like this, the
      [int32] is never boxed, even without flambda. *)

  val i32_create_uninit : int -> i32
  (** Like {!int_create_uninit}: no zero-fill. *)

  (** Accessors are monomorphic [external] re-declarations of the
      Bigarray primitives, so call sites compile to direct unboxed
      loads/stores without flambda. *)

  external i64_length : i64 -> int = "%caml_ba_dim_1"
  external int_length : ints -> int = "%caml_ba_dim_1"
  external i32_length : i32 -> int = "%caml_ba_dim_1"

  external i64_get : i64 -> int -> int64 = "%caml_ba_unsafe_ref_1"
  external i64_set : i64 -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
  external int_get : ints -> int -> int = "%caml_ba_unsafe_ref_1"
  external int_set : ints -> int -> int -> unit = "%caml_ba_unsafe_set_1"
  external i32_get : i32 -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external i32_set : i32 -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"
  (** Unchecked element access (see module comment). *)

  val i64_copy : i64 -> i64

  val int_of_array : int array -> ints
  val int_to_array : ints -> int array
  (** Boxed-array conversions, for loading and for tests — not for hot
      loops. *)
end

(** GF(2) kernels on flat packed word buffers. *)
module Gf2 : sig
  type packed = {
    rows : int;
    cols : int;
    stride : int;  (** words per row: [(cols + 63) / 64] *)
    words : Buf.i64;  (** row-major, [rows * stride] words *)
  }

  val pack : cols:int -> Bitvec.t array -> packed
  (** Copy Bitvec rows (all of length [cols]) into one flat word buffer. *)

  val unpack : packed -> Bitvec.t array

  val transpose64 : int64 array -> unit
  (** In-place transpose of a 64x64 bit block (64 words; bit [c] of word
      [r] is element (r, c)). *)

  val transpose : packed -> packed
  (** Transpose via 64x64 blocks. *)

  val rank : packed -> int
  (** Rank over GF(2): word-parallel forward elimination on a scratch
      copy of the words. *)

  val mul : packed -> packed -> packed
  (** Method-of-Four-Russians product (Gray-code tables); requires
      [cols a = rows b].  Chunks the inner dimension 8 bits at a time,
      switching to the 16-bit tables of {!mul_wide} when
      [rows >= mul_wide_min_rows] — the point where the halved
      accumulate passes amortize the 256x larger table fill. *)

  val mul_wide : packed -> packed -> packed
  (** The 16-bit-chunked product, unconditionally — exposed so tests can
      exercise the wide tables below the {!mul_wide_min_rows} cutover.
      Same result as {!mul}, bit for bit. *)

  val mul_wide_min_rows : int
  (** Row-count cutover above which {!mul} uses the 16-bit tables. *)
end

(** Packed graph kernels for the planted-clique experiments.

    A directed graph is its adjacency rows ([rows.(i)] bit [j] iff edge
    [i -> j], diagonal zero) — the representation [Digraph] stores and the
    BCAST processors receive.  Every function is observationally identical
    to the per-bit implementation it replaced (kept in test/oracle); only the
    word-level execution differs. *)
module Graph : sig
  val bidirectional_core : Bitvec.t array -> Bitvec.t array
  (** [A land A^T] (row [i] bit [j] iff both [i -> j] and [j -> i]) as one
      64x64 block transpose plus a word-AND pass — behind
      [Digraph.bidirectional_core]. *)

  val max_clique : Bitvec.t array -> Bitvec.t -> int list
  (** Maximum clique of the undirected adjacency [adj] restricted to the
      vertex mask, by Bron-Kerbosch with pivoting on a scratch stack of
      per-depth P/X/candidate word buffers (no allocation per node), with
      support-word lists bounding every scan and exact prunings
      (degree-bounded pivot scoring, early stop at a full score,
      branch-and-bound on [|R| + |P|]) that cannot change which clique is
      returned.  Same result as the oracle's [max_clique], bit for bit. *)

  val count_triangles : Bitvec.t array -> int
  (** Triangles of an undirected adjacency (each counted once, [i < j < l])
      via suffix-masked word counts; zero allocation. *)

  val count_k4 : Bitvec.t array -> int
  (** K4s ([i < j < l < m]); one scratch vector reused across the count. *)
end

(** Compressed-sparse-row graph kernels for the n = 10^5..10^6 regime.

    [row_ptr] holds n + 1 offsets into [cols]; row [i]'s columns are
    [cols.(row_ptr.(i)) .. cols.(row_ptr.(i+1) - 1)], strictly ascending,
    in range, diagonal-free.  The columns live on a {!Buf.ints} so the
    GC never scans them.  Kernels validate the invariants once at entry
    and then run unchecked merge/gallop inner loops; the per-vertex loops
    are sharded over fixed-grain row ranges with a left-to-right fold, so
    every result is byte-identical for every [BCC_DOMAINS].  The dense
    {!Graph} kernels are the in-run equality oracle at n <= 512
    (test/test_sparse.ml, `bench sparse`; layout and crossover analysis:
    docs/PERFORMANCE.md). *)
module Spgraph : sig
  type t = {
    n : int;
    row_ptr : int array;
    cols : Buf.ints;
    symmetric : bool;
    mutable checked : bool;
  }
  (** [symmetric] is set by {!make_symmetric} and by the sampler builds
      through {!certified}: every entry (i, j) has its reverse (j, i), so
      out-degree equals in-degree and every out-neighbour is a mutual
      one.  [checked] says the column invariants hold.  On a graph built
      from a caller's arrays ({!make}, {!make_symmetric}) it is set by
      the first successful {!check_t} scan; the CSR arrays are immutable
      after construction, so that O(n + m) scan runs once per graph
      rather than once per kernel call (at n = 10^6 every scan walks
      ~10^9 entries).  On a graph the library built itself
      ({!certified}) it is set from the start, by construction, and no
      scan ever runs. *)

  val make : n:int -> row_ptr:int array -> cols:Buf.ints -> t
  (** Validating constructor; raises [Invalid_argument] on any broken
      CSR invariant (see {!check_t}).  The result is not flagged
      [symmetric], whatever its entries. *)

  val make_symmetric : n:int -> row_ptr:int array -> cols:Buf.ints -> t
  (** {!make} for a CSR the caller has built with every entry (i, j)
      matched by (j, i), flagged [symmetric].  That obligation is the
      caller's: {!check_t} does not test it, and a one-way entry makes
      the degree-recovery shortcuts that trust the flag return wrong
      results. *)

  val certified :
    symmetric:bool -> n:int -> row_ptr:int array -> cols:Buf.ints -> t
  (** The constructor of the library's own builders: [Sparse]'s sampler
      CSR build ([symmetric:true]) and {!bidirectional_core}
      ([symmetric:false]), whose rows are strictly ascending, in range
      and diagonal-free by construction.  It runs only {!check_t}'s O(n)
      offset checks (count, endpoints, monotone: what every unchecked
      row read relies on), raising their [Invalid_argument], and returns
      the graph with [checked] set, so its columns are written once and
      never re-read to be validated.  Not for a caller's arrays: those
      go through {!make} or {!make_symmetric}, whose full scan
      test/test_sparse.ml also runs on every builder output it makes. *)

  val check_t : t -> unit
  (** O(n + m) invariant scan: offsets monotone with the right endpoints,
      rows strictly ascending, in range, diagonal-free.  The offsets are
      checked before any column is read; the column scan then runs on
      fixed 256-row chunks on the [Par] pool, and when several rows are
      malformed the lowest one's message is raised, at any
      [BCC_DOMAINS].  Amortized O(1): a pass that succeeds sets
      [checked] and later calls return immediately, as they do from the
      start on a {!certified} graph (only a scan that runs opens the
      [kern:spgraph.check] profiler span). *)

  val check_vertex : t -> int -> unit

  val vertex_count : t -> int

  val edge_count : t -> int
  (** Directed entry count — a symmetric graph counts each undirected
      edge twice, matching [Digraph.edge_count]. *)

  val degree : t -> int -> int
  (** Out-degree: [row_ptr.(i + 1) - row_ptr.(i)]. *)

  val iter_row : t -> int -> (int -> unit) -> unit
  (** Visit row [i]'s columns in ascending order. *)

  val mem : t -> int -> int -> bool
  (** [mem t i j] — edge test by galloping search in row [i]:
      O(log distance) for runs of nearby queries. *)

  val common_count : t -> int -> int -> int
  (** [|N(i) ∩ N(j)|] by sorted-merge intersection. *)

  val fwd_starts : t -> int array
  (** Per-row offset of the first column exceeding the row index — the
      forward (upper-triangle) suffixes the triangle/K4 merges scan. *)

  val bidirectional_core : t -> t
  (** Keep (i, j) iff (j, i) is present — [A land A^T], the sparse
      {!Graph.bidirectional_core}.  Two sharded passes (survivor counts,
      then disjoint-range fill); the result is built by {!certified}. *)

  val count_triangles : t -> int
  (** Triangles of a symmetric adjacency, each once as [i < j < l]: per
      forward edge (i, j), merge row i's suffix past j with row j's
      forward list.  Same count as {!Graph.count_triangles} on the dense
      rows. *)

  val count_k4 : t -> int
  (** K4s ([i < j < l < m]) via a reused per-chunk scratch row of the
      forward common neighbours of each (i, j). *)
end

(** Exact-enumeration kernels on packed truth tables. *)
module Enum : sig
  type table = { n : int; words : int64 array }
  (** [f : {0,1}^n -> {0,1}] with f(x) at bit [x mod 64] of word
      [x / 64] — input encoding as in [Boolfun]. *)

  val max_arity : int

  val of_bytes : int -> Bytes.t -> table
  (** Pack a [Boolfun]-style byte table ([2^n] bytes, nonzero = true). *)

  val get : table -> int -> bool

  val count : table -> int
  (** [|{x : f(x) = 1}|] — one popcount per word. *)

  val count_forced_ones : table -> mask:int -> int
  (** [|{x ⊇ mask : f(x) = 1}|]: the sub-cube counts behind
      [Boolfun.bias_forced_ones] (the planted-clique restriction).
      Coordinates < 6 are constant within-word patterns; coordinates
      >= 6 select whole words. *)

  val count_flips : table -> i:int -> int
  (** [|{x : f(x) <> f(x xor e_i)}|] — the influence numerator. *)

  val count_above : float array -> threshold:float -> int
  (** [|{j : stats.(j) > threshold}|] — the distinguisher hit count of
      [Distinguishers.Generic.advantage]. *)

  val iter_gray : int -> first:(unit -> unit) -> next:(flipped:int -> index:int -> unit) -> unit
  (** Gray-code walk over the n-cube: [first ()] for input 0, then one
      [next ~flipped ~index] per remaining input, where [flipped] is the
      single coordinate that changed and [index] the input's encoding. *)
end

(** Walsh-Hadamard kernels (in-place, unnormalized). *)
module Wht : sig
  val block : int
  (** Floats per cache block (32 KiB). *)

  val par_threshold : int
  (** Minimum table length for the domain-parallel path. *)

  val inplace_float : float array -> unit
  (** Cache-blocked in-place WHT; length must be a power of two.  Stages
      run two at a time as fused radix-4 butterflies (identical floating
      point, half the memory passes); tables >= [par_threshold] fan the
      stages out across the [Par] pool; results are byte-identical for
      every domain count.  ([float array] is already unboxed in OCaml,
      so the butterflies load and store raw floats; below
      [par_threshold] a call allocates nothing, which test_kern.ml
      pins.) *)
end
