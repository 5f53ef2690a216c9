(** Deterministic, splittable pseudo-random number generator.

    Implemented from scratch (splitmix64 for seeding and splitting,
    xoshiro256++ as the core generator) so that every experiment in the
    repository is reproducible from a single integer seed and independent of
    the OCaml [Random] module.

    In the Broadcast Congested Clique each processor holds {e private}
    random bits; [split] derives an independent stream per processor from a
    common experiment seed, which is exactly how the simulator distributes
    randomness.  Streams derived with different indices are independent for
    all practical purposes. *)

type t

(** Structural Bigarray aliases for the batched fills.  [Prng] sits below
    [Bcc_kern] in the library graph, so it cannot name [Bcc_kern.Buf.i64]
    — but these are the same structural types ([Buf]'s are aliases of the
    identical [Bigarray.Array1.t] instantiations), so a [Buf.i64] is a
    [Prng.i64buf] and vice versa with no conversion. *)

type i64buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type intbuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create seed] is a fresh generator determined by [seed]. *)

val split : t -> int -> t
(** [split g i] is an independent generator derived from [g]'s seed and the
    index [i]; it does not advance [g]. *)

val copy : t -> t

(** {1 Primitive draws} *)

val bits64 : t -> int64
(** 64 uniform bits. *)

val bool : t -> bool
(** The low bit of one {!bits64} draw.  Allocates nothing. *)

val int : t -> int -> int
(** [int g n] is uniform on [0, n); requires [n > 0]. *)

val float : t -> float
(** Uniform on [0, 1). *)

(** {1 Batched draws}

    The block engine runs the xoshiro256++ recurrence in an
    allocation-free loop straight into a Bigarray.  Every fill consumes
    the generator stream exactly as the equivalent sequence of scalar
    draws would — same words, same end state — so batched and scalar
    call sites are interchangeable without re-pinning any artifact. *)

module Block : sig
  val fill_bits64 : t -> i64buf -> pos:int -> len:int -> unit
  (** [fill_bits64 g buf ~pos ~len] writes [len] words at [buf.{pos ..
      pos+len-1}]; word [w] is exactly the [w]-th [bits64 g] draw.
      Requires [0 <= pos], [0 <= len], [pos + len <= dim buf]. *)

  val fill_geometric :
    t -> log1mp:float -> cap:float -> intbuf -> pos:int -> len:int -> unit
  (** [fill_geometric g ~log1mp ~cap buf ~pos ~len] writes [len]
      geometric skips, each decoded from one [float] draw [u] as
      [int_of_float (Float.min (log (1 -. u) /. log1mp) cap)] — the
      decode of [Gnp.sample_fast] and [Sparse.sample_gnp], verbatim,
      fused into the fill loop.  Callers pass
      [log1mp = Float.log (1. -. p)] and the same cap as the scalar
      decode to get bit-identical skips on the identical draw stream. *)

  val save : t -> int64 * int64 * int64 * int64
  (** Snapshot of the four state words.  With [restore] this lets a
      batched consumer speculatively over-fill a block, then rewind and
      replay exactly the draws it actually used, keeping the stream
      position identical to a scalar consumer ([Sparse.sample_gnp]'s
      decode loop does exactly this for its final block). *)

  val restore : t -> int64 * int64 * int64 * int64 -> unit
  (** Reset the state words to a [save] snapshot.  The seed (and hence
      [split]) is unaffected. *)
end

(** {1 Derived draws} *)

val bitvec : t -> int -> Bitvec.t
(** [bitvec g len] is a uniform bit vector of length [len]. *)

val subset : t -> n:int -> k:int -> int list
(** [subset g ~n ~k] is a uniform size-[k] subset of [{0..n-1}], sorted
    increasingly.  This is the clique-location distribution [S_k^[n]] of the
    paper.  Requires [0 <= k <= n].  A partial Fisher-Yates of [k] swaps
    that keeps only the swapped slots, so a call takes O(k) memory,
    whatever [n]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** A uniform permutation of [{0..n-1}]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val binomial : t -> n:int -> p:float -> int
(** Number of successes in [n] independent [bernoulli p] trials (direct
    simulation; intended for moderate [n]). *)
