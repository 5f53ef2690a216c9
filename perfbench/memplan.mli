(** Memory preflight for the sparse pipeline.

    Estimates, from [(n, p, k)] alone, the peak working set of
    [Sparse.sample_planted_sharded] followed by degree recovery, so a
    run that cannot fit is refused with a message instead of being
    OOM-killed halfway through.  Sizes are in bytes; "computed" sizes
    come from element counts, not from measurement. *)

val pairs_mean : n:int -> p:float -> float
(** Expected undirected G(n, p) edge count, [C(n,2) p]. *)

val pairs_hi : n:int -> p:float -> float
(** [pairs_mean] plus six binomial standard deviations — the capacity
    the sampler's pair streams are sized for. *)

val csr_entries : n:int -> p:float -> k:int -> float
(** Expected directed CSR entries of a planted instance: both
    directions of every G(n, p) edge plus the clique overlay's
    [2 C(k,2) (1-p)]. *)

val csr_bytes : n:int -> p:float -> k:int -> float
(** Computed CSR size: 8-byte column entries plus the [n + 1] row
    offsets. *)

val working_set_bytes : n:int -> p:float -> k:int -> float
(** Peak estimate: 48 bytes per sampled pair, 16 per clique pair, 64
    per vertex, plus 64 MiB of runtime.  Per pair: the per-shard pair
    streams (8 B), the bucket-packed scratch (8), the base CSR columns
    (16) and the overlaid instance's columns (16) — all four can be live
    at once, because Bigarray memory is returned only when the GC
    finalizes it.  Per vertex: eight O(n) index arrays. *)

val preflight : needed:float -> available_kb:int option -> (unit, string) result
(** [Error] with a readable message when [needed] exceeds the
    available memory; [Ok] when it fits or the amount is unknown. *)
