module Spgraph = Bcc_kern.Spgraph
module Buf = Bcc_kern.Buf

type t = Spgraph.t

let vertex_count = Spgraph.vertex_count
let edge_count = Spgraph.edge_count
let out_degree = Spgraph.degree
let iter_out = Spgraph.iter_row
let has_edge = Spgraph.mem
let count_common_out_neighbors = Spgraph.common_count

(* bcc-lint: allow kern/unsafe-index — the fill cursor never passes row_ptr.(n) = Buf.int_length cols: row i writes exactly out_degree g i entries and the offsets are their prefix sums *)
let of_digraph g =
  let n = Digraph.vertex_count g in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Digraph.out_degree g i
  done;
  let cols = Buf.int_create row_ptr.(n) in
  let out = ref 0 in
  for i = 0 to n - 1 do
    (* [iter_out] visits ascending, so every row lands sorted. *)
    Digraph.iter_out g i (fun j ->
        Buf.int_set cols !out j;
        incr out)
  done;
  Spgraph.make ~n ~row_ptr ~cols

let to_digraph t =
  let n = Spgraph.vertex_count t in
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Spgraph.iter_row t i (fun j -> Digraph.add_edge g i j)
  done;
  g

let degree_sums t =
  Spgraph.check_t t;
  let n = Spgraph.vertex_count t in
  let sums = Array.make n 0 in
  for i = 0 to n - 1 do
    sums.(i) <- sums.(i) + Spgraph.degree t i;
    Spgraph.iter_row t i (fun j -> sums.(j) <- sums.(j) + 1)
  done;
  sums

(* Build a CSR from forward pairs (i, j), i < j, given as stream
   segments [(row0, counts, js, m)]: [counts.(r)] pairs for row
   [row0 + r], their j's concatenated row-major (ascending within a row)
   in the first [m] slots of [js].  Taken in order, the segments must be
   the global row-major stream — [sample_gnp] passes one segment,
   [sample_gnp_sharded] one per shard, and a row may straddle two.  That
   arrival order makes every output row come out ascending with no
   per-row sort: row i first receives its smaller neighbours from pairs
   (u, i) with u increasing, then its larger ones from pairs (i, v) with
   v increasing.  The segments are read in place, so no merged copy of
   the stream ever exists, and every pass is a plain loop over rows
   with no closure on the per-pair path.

   Two strategies, byte-identical output, switched on the pair count:
   - below 2^20 pairs, a direct counting sort scatters each backward
     entry (j, i) straight to its final slot — one random write per
     pair, cheap while [cols] and the cursors fit in cache;
   - above, a cache-aware two-phase sort first partitions the backward
     entries into row-range buckets, each packed into one native int
     [j lsl 31 lor i] (sequential writes; the packing is why n >= 2^31
     stays on the direct scatter), then scatters each bucket while its
     target rows and cursors are cache-resident.  At n = 10^6 /
     m = 5 x 10^8 this takes the build from DRAM-latency bound
     (~43 ns/pair) to memory-bandwidth bound.  Bucketing by row range
     preserves stream order inside each bucket, so rows still receive
     their entries in ascending order. *)
let csr_of_segments ~n segs =
  let fwd_count = Array.make n 0 in
  let m = ref 0 in
  for s = 0 to Array.length segs - 1 do
    let row0, counts, js, ms = segs.(s) in
    if ms < 0 || ms > Buf.int_length js then
      invalid_arg "Sparse: pair stream shorter than m";
    if row0 < 0 || row0 + Array.length counts > n then
      invalid_arg "Sparse: segment rows out of range";
    let sum = ref 0 in
    for r = 0 to Array.length counts - 1 do
      if counts.(r) < 0 then invalid_arg "Sparse: negative per-row count";
      fwd_count.(row0 + r) <- fwd_count.(row0 + r) + counts.(r);
      sum := !sum + counts.(r)
    done;
    if !sum <> ms then invalid_arg "Sparse: per-row counts do not sum to m";
    m := !m + ms
  done;
  let m = !m in
  let offsets deg =
    let row_ptr = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + deg.(i)
    done;
    row_ptr
  in
  (* Per-row degrees: the forward counts plus one per backward entry. *)
  let deg = Array.copy fwd_count in
  if m < 1 lsl 20 || n >= 1 lsl 31 then begin
    for s = 0 to Array.length segs - 1 do
      let _, _, js, ms = segs.(s) in
      for e = 0 to ms - 1 do
        let j = Buf.int_get js e in
        deg.(j) <- deg.(j) + 1
      done
    done;
    let row_ptr = offsets deg in
    (* Uninitialized is safe: the cursor prefix sums partition the buffer
       and the scatter writes exactly [deg.(i)] entries into row i. *)
    let cols = Buf.int_create_uninit (2 * m) in
    let cursor = Array.sub row_ptr 0 n in
    for s = 0 to Array.length segs - 1 do
      let row0, counts, js, _ = segs.(s) in
      let e = ref 0 in
      for r = 0 to Array.length counts - 1 do
        let i = row0 + r in
        for d = !e to !e + counts.(r) - 1 do
          let j = Buf.int_get js d in
          Buf.int_set cols cursor.(i) j;
          cursor.(i) <- cursor.(i) + 1;
          Buf.int_set cols cursor.(j) i;
          cursor.(j) <- cursor.(j) + 1
        done;
        e := !e + counts.(r)
      done
    done;
    Spgraph.make ~n ~row_ptr ~cols
  end
  else begin
    (* Bucket width: the smallest power-of-two row range that keeps the
       bucket count within [target] — a function of n and m only. *)
    let target = max 1 (min 1024 (m / (1 lsl 18))) in
    let shift = ref 0 in
    while ((n - 1) lsr !shift) + 1 > target do incr shift done;
    let shift = !shift in
    let nb = ((n - 1) lsr shift) + 1 in
    let bcount = Array.make nb 0 in
    for s = 0 to Array.length segs - 1 do
      let _, _, js, ms = segs.(s) in
      for e = 0 to ms - 1 do
        let b = Buf.int_get js e lsr shift in
        bcount.(b) <- bcount.(b) + 1
      done
    done;
    let bptr = Array.make (nb + 1) 0 in
    for b = 0 to nb - 1 do
      bptr.(b + 1) <- bptr.(b) + bcount.(b)
    done;
    (* Partition pass: pack (j, i) and append to j's bucket, accumulating
       backward degrees on the way (one pass over the stream instead of a
       later re-read of [packed]). *)
    let packed = Buf.int_create_uninit m in
    let bcur = Array.sub bptr 0 nb in
    for s = 0 to Array.length segs - 1 do
      let row0, counts, js, _ = segs.(s) in
      let e = ref 0 in
      for r = 0 to Array.length counts - 1 do
        let i = row0 + r in
        for d = !e to !e + counts.(r) - 1 do
          let j = Buf.int_get js d in
          let b = j lsr shift in
          Buf.int_set packed bcur.(b) ((j lsl 31) lor i);
          bcur.(b) <- bcur.(b) + 1;
          deg.(j) <- deg.(j) + 1
        done;
        e := !e + counts.(r)
      done
    done;
    let row_ptr = offsets deg in
    (* Uninitialized is safe: forward entries fill the tail
       [fwd_count.(i)] slots of each row, backward entries fill the head
       [deg.(i) - fwd_count.(i)] slots, and the two fills write exactly
       [deg.(i)] entries per row. *)
    let cols = Buf.int_create_uninit (2 * m) in
    (* Forward fill through per-row cursors, straight from the stream: a
       row straddling two segments receives the earlier one's entries
       first. *)
    let fcur = Array.init n (fun i -> row_ptr.(i + 1) - fwd_count.(i)) in
    for s = 0 to Array.length segs - 1 do
      let row0, counts, js, _ = segs.(s) in
      let e = ref 0 in
      for r = 0 to Array.length counts - 1 do
        let i = row0 + r in
        for d = !e to !e + counts.(r) - 1 do
          Buf.int_set cols fcur.(i) (Buf.int_get js d);
          fcur.(i) <- fcur.(i) + 1
        done;
        e := !e + counts.(r)
      done
    done;
    (* Backward fill, bucket by bucket: target rows and cursors stay
       cache-resident for the whole bucket. *)
    let cursor = Array.sub row_ptr 0 n in
    let mask31 = (1 lsl 31) - 1 in
    for e = 0 to m - 1 do
      let w = Buf.int_get packed e in
      let j = w lsr 31 in
      Buf.int_set cols cursor.(j) (w land mask31);
      cursor.(j) <- cursor.(j) + 1
    done;
    Spgraph.make ~n ~row_ptr ~cols
  end

(* CSR twin of [Gnp.sample_fast]: the identical geometric-skip decode —
   same [Prng.float] draws in the same order, same cap, same row-major
   pair walk — but the skips are decoded in blocks by
   [Prng.Block.fill_geometric] (one fused pass, no per-draw call or
   box) and the decoded pairs are appended to a pair stream instead of
   written into dense rows, so a G(n, p) graph costs O(n + m) memory
   end to end.  Block boundaries never leak into the stream: the final
   block is speculatively over-filled, then rewound ([Block.save] /
   [Block.restore]) and replayed for exactly the draws the scalar
   decode would have consumed, so the generator's end state matches the
   scalar path draw for draw.  test/test_sparse.ml pins
   [sample_gnp] == [of_digraph (Gnp.sample_fast ...)], graph and end
   state, on shared seeds.

   [?stream_cap] overrides the initial pair-stream capacity (normally
   the binomial mean + 6 sigma) so tests can force the geometric-growth
   path; the sampled graph is identical for any value. *)
let sample_gnp ?stream_cap g ~n ~p =
  if n < 0 then invalid_arg "Sparse.sample_gnp: n >= 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Sparse.sample_gnp: p in [0,1]";
  let total = n * (n - 1) / 2 in
  let mean = p *. float_of_int total in
  let cap0 =
    match stream_cap with
    | Some c -> min (max 1 total) (max 1 c)
    | None ->
        min (max 1 total)
          (64 + int_of_float (mean +. (6.0 *. Float.sqrt (mean +. 1.0))))
  in
  let js = ref (Buf.int_create_uninit cap0) in
  let cap = ref cap0 in
  let fwd_count = Array.make n 0 in
  let m = ref 0 in
  let grow () =
    (* Geometric growth, clamped to the pair count: [m] can never reach
       [total] at a push (there are at most [total] pushes), so the
       clamped doubling always yields cap' > m. *)
    let cap' = min (max 1 total) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.int_create_uninit cap' in
    if !m > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub !js 0 !m)
        (Bigarray.Array1.sub js' 0 !m);
    js := js';
    cap := cap'
  in
  if p >= 1.0 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if !m = !cap then grow ();
        Buf.int_set !js !m j;
        fwd_count.(i) <- fwd_count.(i) + 1;
        incr m
      done
    done
  else if p > 0.0 && total > 0 then begin
    let log1mp = Float.log (1.0 -. p) in
    let capf = float_of_int total in
    let block = max 64 (min 65536 (int_of_float mean + 64)) in
    let skips = Buf.int_create_uninit block in
    let row = ref 0 in
    let row_start = ref 0 in
    let idx = ref (-1) in
    let continue = ref true in
    while !continue do
      let snap = Prng.Block.save g in
      Prng.Block.fill_geometric g ~log1mp ~cap:capf skips ~pos:0 ~len:block;
      let t = ref 0 in
      while !continue && !t < block do
        let skip = Buf.int_get skips !t in
        incr t;
        idx := !idx + 1 + skip;
        if !idx >= total then begin
          continue := false;
          (* Rewind the speculative block, replay the consumed prefix:
             the stream position ends exactly where the scalar decode's
             would. *)
          Prng.Block.restore g snap;
          Prng.Block.fill_geometric g ~log1mp ~cap:capf skips ~pos:0 ~len:!t
        end
        else begin
          while !idx >= !row_start + (n - 1 - !row) do
            row_start := !row_start + (n - 1 - !row);
            incr row
          done;
          if !m = !cap then grow ();
          Buf.int_set !js !m (!row + 1 + (!idx - !row_start));
          fwd_count.(!row) <- fwd_count.(!row) + 1;
          incr m
        end
      done
    done
  end;
  csr_of_segments ~n [| (0, fwd_count, !js, !m) |]

(* ---------- Word-level skip decode for the sharded sampler ---------- *)

(* The sharded sampler's skips are decoded from raw 53-bit uniforms by
   integer threshold inversion instead of the scalar path's
   [Float.log]: thresholds thr.(k) = round((1 - (1-p)^k) * 2^53) tile
   [0, 2^53) so that a uniform w lands in [thr.(k), thr.(k+1)) exactly
   when the geometric skip is k.  A 2^16-entry guide table points each
   u-window at its starting k, so a decode is one guide load plus a
   short threshold walk (binary search for the rare crowded windows) —
   a few ns, entirely in integers, no libm in the hot loop.  The
   distribution matches the log decode to within one part in 2^53 (the
   same rounding granularity the float decode carries); the exact
   per-bit stream is different, which is why the sharded sampler is a
   separate, documented stream rather than a drop-in for [sample_gnp].

   If p is so small that (1-p)^k is still > 2^-54 at the table cap, the
   last threshold is a tail sentinel: a uniform landing beyond it adds
   [kmax] to the skip and decodes another word (geometric
   memorylessness), so arbitrarily small p stays exact. *)

let skip_gbits = 16
let two53f = 9007199254740992.0
let two53 = 1 lsl 53

type skip_table = { thr : Buf.ints; guide : Buf.ints; kmax : int }

let make_skip_table p =
  let q = 1.0 -. p in
  let capk = 1 lsl 17 in
  (* Sizing pass: find the first k whose boundary rounds to 2^53. *)
  let kmax = ref capk in
  (try
     let qk = ref 1.0 in
     for k = 1 to capk do
       qk := !qk *. q;
       if ((1.0 -. !qk) *. two53f) +. 0.5 >= two53f then begin
         kmax := k;
         raise Exit
       end
     done
   with Exit -> ());
  let kmax = !kmax in
  let thr = Buf.int_create (kmax + 1) in
  Buf.int_set thr 0 0;
  let qk = ref 1.0 in
  let prev = ref 0 in
  for k = 1 to kmax do
    qk := !qk *. q;
    let b = int_of_float (Float.round ((1.0 -. !qk) *. two53f)) in
    let b = min two53 (max !prev b) in
    Buf.int_set thr k b;
    prev := b
  done;
  let gsize = 1 lsl skip_gbits in
  let guide = Buf.int_create gsize in
  let k = ref 0 in
  for h = 0 to gsize - 1 do
    let base = h lsl (53 - skip_gbits) in
    while !k < kmax - 1 && Buf.int_get thr (!k + 1) <= base do
      incr k
    done;
    Buf.int_set guide h !k
  done;
  { thr; guide; kmax }

(* Largest k with thr.(k) <= w; k = kmax means the tail sentinel. *)
(* bcc-lint: allow kern/unsafe-index — callers pass w < 2^53 (the top 53 bits of a draw), so the guide index w lsr 37 < 2^16 = its length; every thr access is at an index <= kmax with length kmax + 1 (make_skip_table builds both) *)
let[@inline] decode_skip tbl w =
  let kmax = tbl.kmax in
  let k = ref (Buf.int_get tbl.guide (w lsr (53 - skip_gbits))) in
  let steps = ref 0 in
  while !steps < 6 && !k < kmax && Buf.int_get tbl.thr (!k + 1) <= w do
    incr k;
    incr steps
  done;
  if !k < kmax && Buf.int_get tbl.thr (!k + 1) <= w then begin
    (* Crowded window: binary search the remaining thresholds. *)
    let lo = ref (!k + 1) and hi = ref kmax in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) lsr 1 in
      if Buf.int_get tbl.thr mid <= w then lo := mid else hi := mid - 1
    done;
    k := !lo
  end;
  !k

(* Row r of the upper-triangle pair walk starts at pair index
   S_r = r(n-1) - r(r-1)/2; find the largest r with S_r <= idx by a
   float sqrt guess plus an exact integer fixup. *)
let row_of_pair_index n idx =
  let s_of r = (r * (n - 1)) - (r * (r - 1) / 2) in
  let nf = float_of_int n in
  let disc = ((nf -. 0.5) *. (nf -. 0.5)) -. (2.0 *. float_of_int idx) in
  let guess = int_of_float (nf -. 0.5 -. Float.sqrt (Float.max 0.0 disc)) in
  let r = ref (max 0 (min (n - 2) guess)) in
  while !r > 0 && s_of !r > idx do
    decr r
  done;
  while !r < n - 2 && s_of (!r + 1) <= idx do
    incr r
  done;
  !r

(* One shard's slice [lo, hi) of the pair-index walk, on a dedicated
   child stream: returns the shard's [csr_of_segments] segment (first
   row, per-row counts over the shard's row span, pair stream, pair
   count). *)
(* bcc-lint: allow kern/unsafe-index — every words read follows the refill check that keeps wcur < avail <= words_cap = Buf.i64_length words, and the js write follows grow (), which keeps m < cap = Buf.int_length !js *)
let decode_shard ~n ~mean_per_pair tbl child ~lo ~hi =
  let row0 = row_of_pair_index n lo in
  let s_of r = (r * (n - 1)) - (r * (r - 1) / 2) in
  let row_end = row_of_pair_index n (hi - 1) in
  let span = row_end - row0 + 1 in
  let counts = Array.make span 0 in
  let mean = mean_per_pair *. float_of_int (hi - lo) in
  let cap0 =
    min (max 1 (hi - lo))
      (64 + int_of_float (mean +. (6.0 *. Float.sqrt (mean +. 1.0))))
  in
  let js = ref (Buf.int_create_uninit cap0) in
  let cap = ref cap0 in
  let m = ref 0 in
  let grow () =
    let cap' = min (max 1 (hi - lo)) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.int_create_uninit cap' in
    if !m > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub !js 0 !m)
        (Bigarray.Array1.sub js' 0 !m);
    js := js';
    cap := cap'
  in
  let words_cap = 8192 in
  let words = Buf.i64_create words_cap in
  let avail = ref 0 in
  let wcur = ref 0 in
  let kmax = tbl.kmax in
  let row = ref row0 in
  let row_start = ref (s_of row0) in
  let idx = ref (lo - 1) in
  let continue = ref true in
  while !continue do
    (* The child stream is dedicated to this shard, so over-fetching a
       block of words needs no rewind — leftovers are simply dropped. *)
    if !wcur >= !avail then begin
      Prng.Block.fill_bits64 child words ~pos:0 ~len:words_cap;
      avail := words_cap;
      wcur := 0
    end;
    let w =
      Int64.to_int (Int64.shift_right_logical (Buf.i64_get words !wcur) 11)
    in
    incr wcur;
    let k = ref (decode_skip tbl w) in
    let skip = ref 0 in
    while !k = kmax && !idx + 1 + !skip + kmax < hi do
      (* Tail sentinel: add kmax and decode the excess from a fresh
         word, until the skip either resolves or walks past the shard. *)
      skip := !skip + kmax;
      if !wcur >= !avail then begin
        Prng.Block.fill_bits64 child words ~pos:0 ~len:words_cap;
        avail := words_cap;
        wcur := 0
      end;
      let w =
        Int64.to_int (Int64.shift_right_logical (Buf.i64_get words !wcur) 11)
      in
      incr wcur;
      k := decode_skip tbl w
    done;
    let skip = !skip + !k in
    idx := !idx + 1 + skip;
    if !idx >= hi then continue := false
    else begin
      while !idx >= !row_start + (n - 1 - !row) do
        row_start := !row_start + (n - 1 - !row);
        incr row
      done;
      if !m = !cap then grow ();
      Buf.int_set !js !m (!row + 1 + (!idx - !row_start));
      counts.(!row - row0) <- counts.(!row - row0) + 1;
      incr m
    end
  done;
  (row0, counts, !js, !m)

(* Fixed seed-space salt: the sharded sampler derives its shard streams
   from [split (split g shard_salt) s], leaving the parent stream
   position untouched and keeping the per-trial child indices
   (Par.map_trials splits 0, 1, 2, ...) collision-free. *)
let shard_salt = 0x5eed

let shard_count total = if total < 65536 then 1 else 64

(* Sharded G(n, p): the pair-index walk is cut into [shard_count]
   equal slices — a function of n alone, never of the pool size — each
   decoded on its own [Prng.split] child stream by the word-level skip
   decode above, in parallel on the [Par] pool.  The per-shard pair
   streams, taken in shard order, are the global row-major walk, so they
   go to [csr_of_segments] as they are — no merged copy — and the result
   is byte-identical at any [BCC_DOMAINS].  This is a new, documented
   stream: same-seed results differ from [sample_gnp] by construction
   (see docs/PERFORMANCE.md "Batched draws"). *)
let sample_gnp_sharded g ~n ~p =
  if n < 0 then invalid_arg "Sparse.sample_gnp_sharded: n >= 0";
  if n >= 1 lsl 30 then invalid_arg "Sparse.sample_gnp_sharded: n < 2^30";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Sparse.sample_gnp_sharded: p in [0,1]";
  let total = n * (n - 1) / 2 in
  (* The deterministic graphs (complete, empty) draw nothing on any
     stream, so [sample_gnp] builds them without touching [g]. *)
  if p >= 1.0 || p <= 0.0 || total = 0 then sample_gnp g ~n ~p
  else begin
    let tbl = make_skip_table p in
    let shards = shard_count total in
    let base = total / shards in
    let rem = total mod shards in
    let lo_of s = (base * s) + min s rem in
    let root = Prng.split g shard_salt in
    let results =
      Par.map_array
        (fun s ->
          let child = Prng.split root s in
          let lo = lo_of s and hi = lo_of (s + 1) in
          if lo >= hi then (0, [||], Buf.int_create_uninit 1, 0)
          else decode_shard ~n ~mean_per_pair:p tbl child ~lo ~hi)
        (Array.init shards Fun.id)
    in
    csr_of_segments ~n results
  end

(* Union the rows of [t] with the clique on [cs]: one count pass, one
   sorted-merge fill pass — existing edges inside the clique dedupe
   against the merge, exactly like [Planted.sample_planted_at]'s
   idempotent [add_edge] calls on the dense side. *)
let overlay_clique t cs =
  Spgraph.check_t t;
  let n = Spgraph.vertex_count t in
  let kc = Array.length cs in
  if kc = 0 then t
  else begin
    let in_c = Array.make n false in
    Array.iter
      (fun v ->
        if v < 0 || v >= n then invalid_arg "Sparse: clique vertex out of range";
        in_c.(v) <- true)
      cs;
    let row_ptr = t.Spgraph.row_ptr and cols = t.Spgraph.cols in
    (* |row i ∪ (cs \ {i})| *)
    let union_size i =
      let a = ref row_ptr.(i) and ae = row_ptr.(i + 1) in
      let b = ref 0 in
      let count = ref 0 in
      while !a < ae && !b < kc do
        let x = Buf.int_get cols !a and y = Array.unsafe_get cs !b in
        if y = i then incr b
        else if x < y then begin
          incr count;
          incr a
        end
        else if y < x then begin
          incr count;
          incr b
        end
        else begin
          incr count;
          incr a;
          incr b
        end
      done;
      count := !count + (ae - !a);
      while !b < kc do
        if Array.unsafe_get cs !b <> i then incr count;
        incr b
      done;
      !count
    in
    let row_ptr' = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      let d =
        if in_c.(i) then union_size i else row_ptr.(i + 1) - row_ptr.(i)
      in
      row_ptr'.(i + 1) <- row_ptr'.(i) + d
    done;
    (* Uninitialized is safe: [emit] writes every slot in order — the
       per-row union sizes sum to exactly [row_ptr'.(n)]. *)
    let cols' = Buf.int_create_uninit row_ptr'.(n) in
    let out = ref 0 in
    let emit j =
      Buf.int_set cols' !out j;
      incr out
    in
    for i = 0 to n - 1 do
      if in_c.(i) then begin
        let a = ref row_ptr.(i) and ae = row_ptr.(i + 1) in
        let b = ref 0 in
        while !a < ae && !b < kc do
          let x = Buf.int_get cols !a and y = Array.unsafe_get cs !b in
          if y = i then incr b
          else if x < y then begin
            emit x;
            incr a
          end
          else if y < x then begin
            emit y;
            incr b
          end
          else begin
            emit x;
            incr a;
            incr b
          end
        done;
        while !a < ae do
          emit (Buf.int_get cols !a);
          incr a
        done;
        while !b < kc do
          let y = Array.unsafe_get cs !b in
          if y <> i then emit y;
          incr b
        done
      end
      else
        for idx = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          emit (Buf.int_get cols idx)
        done
    done;
    Spgraph.make ~n ~row_ptr:row_ptr' ~cols:cols'
  end

(* Sparse-regime planted instance: the clique vertex set is drawn first
   ([Prng.subset]) and the G(n, p) stream second — [Planted.sample_planted]'s
   draw order, so dense and sparse planted instances on a shared seed use
   the PRNG identically. *)
let sample_planted g ~n ~p ~k =
  let c = Prng.subset g ~n ~k in
  let base = sample_gnp g ~n ~p in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  (overlay_clique base cs, c)

(* Sharded twin: subset from the parent stream first (same position as
   [sample_planted]), then the sharded G(n, p) — whose shard children
   never touch the parent stream, so after this call the parent sits
   exactly one [subset] past where it started. *)
let sample_planted_sharded g ~n ~p ~k =
  let c = Prng.subset g ~n ~k in
  let base = sample_gnp_sharded g ~n ~p in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  (overlay_clique base cs, c)
