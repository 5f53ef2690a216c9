module Spgraph = Bcc_kern.Spgraph
module Buf = Bcc_kern.Buf

type t = Spgraph.t

let vertex_count = Spgraph.vertex_count
let edge_count = Spgraph.edge_count
let out_degree = Spgraph.degree
let iter_out = Spgraph.iter_row
let has_edge = Spgraph.mem

(* On a symmetric CSR every out-neighbour is a mutual one, so the
   reverse-edge test is skipped. *)
let iter_mutual t u f =
  if t.Spgraph.symmetric then Spgraph.iter_row t u f
  else Spgraph.iter_row t u (fun v -> if Spgraph.mem t v u then f v)

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

(* [f 0] .. [f (count - 1)] on the [Par] pool; every caller writes
   disjoint slots, so the result never depends on the schedule. *)
let par_for count f = ignore (Par.map_array f (Array.init count Fun.id))

(* Out-degrees come from the offsets.  On a symmetric CSR the in-degree
   is the out-degree, so the sum is twice the row length.  Otherwise the
   in-degrees are a histogram of the columns: the entry scan is cut into
   at most 8 equal slices of at least 2^20 entries — a function of m
   alone — each counted into its own histogram on the [Par] pool.
   Integer counts sum to the same totals in any order, so the result is
   the sequential scan's at any domain count. *)
(* bcc-lint: allow kern/unsafe-index — after check_t, row_ptr.(n) = Buf.int_length cols and every column is in [0, n) (its scan proved it, or a certified builder wrote it so), so each e < m reads cols in bounds and each histogram index j < n = Buf.int_length h *)
let degree_sums t =
  Spgraph.check_t t;
  Prof.span "sparse:degree_sums" (fun () ->
      let n = Spgraph.vertex_count t in
      let row_ptr = t.Spgraph.row_ptr and cols = t.Spgraph.cols in
      let out i = row_ptr.(i + 1) - row_ptr.(i) in
      if t.Spgraph.symmetric then Array.init n (fun i -> 2 * out i)
      else begin
        let m = row_ptr.(n) in
        let parts = max 1 (min 8 (m lsr 20)) in
        let hists =
          Par.map_array
            (fun q ->
              let h = Buf.int_create n in
              for e = q * m / parts to ((q + 1) * m / parts) - 1 do
                let j = Buf.int_get cols e in
                Buf.int_set h j (Buf.int_get h j + 1)
              done;
              h)
            (Array.init parts Fun.id)
        in
        let sums = Array.init n out in
        Array.iter
          (fun h ->
            for i = 0 to n - 1 do
              sums.(i) <- sums.(i) + Buf.int_get h i
            done)
          hists;
        sums
      end)

(* Build a CSR from forward pairs (i, j), i < j, given as stream
   segments [(row0, counts, js, m)]: [counts.(r)] pairs for row
   [row0 + r], their j's concatenated row-major (ascending within a row)
   in the first [m] slots of [js].  Taken in order, the segments must be
   the global row-major stream — [sample_gnp] passes one segment,
   [sample_gnp_sharded] one per shard, the planted samplers the
   [splice_clique] cut of either, and a row may straddle several.  That
   arrival order makes every output row come out ascending with no
   per-row sort: row i first receives its smaller neighbours from pairs
   (u, i) with u increasing, then its larger ones from pairs (i, v) with
   v increasing.  The segments are read in place, so no merged copy of
   the stream ever exists, and every pass is a plain loop over rows
   with no closure on the per-pair path.  Each pair is written both
   ways, forward into row i and backward into row j, so the result is
   symmetric by construction.  Its rows are ascending, in range and
   diagonal-free by construction too, so it is built by
   [Spgraph.certified]: the O(n) offset checks run, the O(m) column
   scan does not, and [cols] is written once and not re-read.

   Two strategies, byte-identical output, switched on the pair count:
   - below 2^20 pairs, a direct counting sort scatters each backward
     entry (j, i) straight to its final slot — one random write per
     pair, cheap while [cols] and the cursors fit in cache; sequential;
   - above, a cache-aware two-phase sort first partitions the backward
     entries into row-range buckets, each packed into one native int
     [j lsl 31 lor i] (sequential writes), then scatters each bucket
     while its target rows and cursors are cache-resident.  At n = 10^6 /
     m = 5 x 10^8 this takes the build from DRAM-latency bound
     (~43 ns/pair) to memory-bandwidth bound.  Bucketing by row range
     preserves stream order inside each bucket, so rows still receive
     their entries in ascending order.  The buckets need no buffer of
     their own: a bucket's rows own one contiguous region of [cols]
     (their backward entries, then their forward ones), and the
     partition parks the bucket's packed entries at the front of it.
     Three passes run on the [Par] pool: bucket count and partition per
     work unit (a run of consecutive segments); then per bucket, copy
     its entries to lane scratch, count its rows' backward degrees,
     write its rows' offsets and scatter their heads over the region;
     then the forward fill per work unit writes the row tails into
     pages the bucket pass has already faulted in.  Each unit's slice
     of each bucket comes from a unit x bucket prefix sum, so every
     write lands where the sequential build would put it, whatever the
     pool size.  Peak memory is the 4-byte stream plus [cols], 20 bytes
     per pair, and one largest bucket of scratch per lane. *)

(* Per-domain copy of one bucket's packed entries, grown on demand and
   reused across builds.  It needs no re-zeroing: the bucket pass copies
   the bucket's entries into slots [0, cnt) before it reads any slot and
   reads none past [cnt], so entries left by an earlier bucket or build
   are never read, and the per-domain keying means no two lanes ever
   share the buffer. *)
let bucket_scratch = Par.lane_scratch (fun () -> ref (Buf.int_create 0))

let csr_of_segments ~n segs =
  let nseg = Array.length segs in
  let fwd_count = Array.make n 0 in
  let m = ref 0 in
  let last_row = ref 0 in
  for s = 0 to nseg - 1 do
    let row0, counts, js, ms = segs.(s) in
    let len = Array.length counts in
    if ms < 0 || ms > Buf.i32_length js then
      invalid_arg "Sparse: pair stream shorter than m";
    if row0 < 0 || row0 + len > n then
      invalid_arg "Sparse: segment rows out of range";
    if len > 0 then begin
      if row0 < !last_row then invalid_arg "Sparse: segments out of row order";
      last_row := row0 + len - 1
    end;
    let sum = ref 0 in
    for r = 0 to len - 1 do
      if counts.(r) < 0 then invalid_arg "Sparse: negative per-row count";
      fwd_count.(row0 + r) <- fwd_count.(row0 + r) + counts.(r);
      sum := !sum + counts.(r)
    done;
    if !sum <> ms then invalid_arg "Sparse: per-row counts do not sum to m";
    m := !m + ms
  done;
  let m = !m in
  (* Uninitialized is safe on both paths: every row receives exactly its
     degree in entries, at slots the offsets partition. *)
  let cols = Buf.int_create_uninit (2 * m) in
  let row_ptr = Array.make (n + 1) 0 in
  if m < 1 lsl 20 then begin
    (* Per-row degrees: the forward counts plus one per backward entry. *)
    let deg = Array.copy fwd_count in
    for s = 0 to nseg - 1 do
      let _, _, js, ms = segs.(s) in
      for e = 0 to ms - 1 do
        let j = Int32.to_int (Buf.i32_get js e) in
        deg.(j) <- deg.(j) + 1
      done
    done;
    for i = 0 to n - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + deg.(i)
    done;
    let cursor = Array.sub row_ptr 0 n in
    for s = 0 to nseg - 1 do
      let row0, counts, js, _ = segs.(s) in
      let e = ref 0 in
      for r = 0 to Array.length counts - 1 do
        let i = row0 + r in
        for d = !e to !e + counts.(r) - 1 do
          let j = Int32.to_int (Buf.i32_get js d) in
          Buf.int_set cols cursor.(i) j;
          cursor.(i) <- cursor.(i) + 1;
          Buf.int_set cols cursor.(j) i;
          cursor.(j) <- cursor.(j) + 1
        done;
        e := !e + counts.(r)
      done
    done
  end
  else begin
    (* Bucket width: the smallest power-of-two row range that keeps the
       bucket count within [target] — a function of n and m only. *)
    let target = max 1 (min 1024 (m / (1 lsl 18))) in
    let shift = ref 0 in
    while ((n - 1) lsr !shift) + 1 > target do incr shift done;
    let shift = !shift in
    let nb = ((n - 1) lsr shift) + 1 in
    (* Work units: runs of consecutive segments holding at least 2^18
       pairs each (the last takes the rest) — a function of the segment
       sizes only.  Thousands of one-row clique segments then cost no
       more dispatches or offset-table rows than the shards between
       them. *)
    let units =
      let acc = ref [] and first = ref 0 and pairs = ref 0 in
      for s = 0 to nseg - 1 do
        let _, _, _, ms = segs.(s) in
        pairs := !pairs + ms;
        if !pairs >= 1 lsl 18 then begin
          acc := (!first, s + 1) :: !acc;
          first := s + 1;
          pairs := 0
        end
      done;
      if !first < nseg then acc := (!first, nseg) :: !acc;
      Array.of_list (List.rev !acc)
    in
    let nu = Array.length units in
    let ucount =
      Par.map_array
        (fun (s0, s1) ->
          let c = Array.make nb 0 in
          for s = s0 to s1 - 1 do
            let _, _, js, ms = segs.(s) in
            for e = 0 to ms - 1 do
              let b = Int32.to_int (Buf.i32_get js e) lsr shift in
              c.(b) <- c.(b) + 1
            done
          done;
          c)
        units
    in
    (* Bucket b's rows own the region [region.(b), region.(b + 1)) of
       [cols]: its backward entries, then its rows' forward entries.
       Unit u's slice of the bucket's packed entries starts at
       [uoff.(u * nb + b)], after every earlier unit's: bucket-major,
       unit-minor, i.e. stream order. *)
    let fwd_total = Array.make nb 0 in
    for i = 0 to n - 1 do
      let b = i lsr shift in
      fwd_total.(b) <- fwd_total.(b) + fwd_count.(i)
    done;
    let uoff = Array.make (nu * nb) 0 in
    let region = Array.make (nb + 1) 0 in
    let bcount = Array.make nb 0 in
    for b = 0 to nb - 1 do
      let c = ref region.(b) in
      for u = 0 to nu - 1 do
        uoff.((u * nb) + b) <- !c;
        c := !c + ucount.(u).(b)
      done;
      bcount.(b) <- !c - region.(b);
      region.(b + 1) <- !c + fwd_total.(b)
    done;
    let bmax = Array.fold_left max 0 bcount in
    (* Partition pass: pack (j, i) and park it at the front of j's
       bucket region, at the unit's own cursors. *)
    par_for nu (fun u ->
        let s0, s1 = units.(u) in
        let bcur = Array.sub uoff (u * nb) nb in
        for s = s0 to s1 - 1 do
          let row0, counts, js, _ = segs.(s) in
          let e = ref 0 in
          for r = 0 to Array.length counts - 1 do
            let i = row0 + r in
            for d = !e to !e + counts.(r) - 1 do
              let j = Int32.to_int (Buf.i32_get js d) in
              let b = j lsr shift in
              Buf.int_set cols bcur.(b) ((j lsl 31) lor i);
              bcur.(b) <- bcur.(b) + 1
            done;
            e := !e + counts.(r)
          done
        done);
    (* Bucket pass.  Each row belongs to one bucket, so the lanes write
       disjoint slots of [cursor], [row_ptr] and [cols].  The bucket's
       entries are copied out first because the head scatter overwrites
       the region they were parked in; the scatter's target rows and
       cursors stay cache-resident for the whole bucket.  [cursor.(j)]
       counts row j's backward entries, then walks its head slots. *)
    let cursor = Array.make n 0 in
    let mask31 = (1 lsl 31) - 1 in
    par_for nb (fun b ->
        let lo = b lsl shift and hi = min n ((b + 1) lsl shift) in
        let base = region.(b) and cnt = bcount.(b) in
        let cell = bucket_scratch () in
        if Buf.int_length !cell < bmax then cell := Buf.int_create_uninit bmax;
        let scratch = !cell in
        Bigarray.Array1.blit
          (Bigarray.Array1.sub cols base cnt)
          (Bigarray.Array1.sub scratch 0 cnt);
        (* bcc-lint: allow par/dls-zero — write before read: the blit just wrote slots [0, cnt) and neither loop reads past cnt, so no earlier bucket's entries can leak (see bucket_scratch) *)
        for e = 0 to cnt - 1 do
          let j = Buf.int_get scratch e lsr 31 in
          cursor.(j) <- cursor.(j) + 1
        done;
        let start = ref base in
        for i = lo to hi - 1 do
          let d = cursor.(i) + fwd_count.(i) in
          row_ptr.(i) <- !start;
          cursor.(i) <- !start;
          start := !start + d
        done;
        for e = 0 to cnt - 1 do
          let w = Buf.int_get scratch e in
          let j = w lsr 31 in
          Buf.int_set cols cursor.(j) (w land mask31);
          cursor.(j) <- cursor.(j) + 1
        done);
    row_ptr.(n) <- 2 * m;
    (* Forward fill, unit by unit, straight from the stream.  A row's
       forward entries fill the tail of its slot range in stream order,
       so a segment's first row starts after the entries earlier
       segments gave it ([fstart]); its other rows start their tails. *)
    let fstart = Array.make nseg 0 in
    let prev_row = ref (-1) and prev_end = ref 0 in
    for s = 0 to nseg - 1 do
      let row0, counts, _, _ = segs.(s) in
      let len = Array.length counts in
      if len > 0 then begin
        let tail i = row_ptr.(i + 1) - fwd_count.(i) in
        fstart.(s) <- (if row0 = !prev_row then !prev_end else tail row0);
        let last = row0 + len - 1 in
        prev_end :=
          (if len = 1 then fstart.(s) else tail last) + counts.(len - 1);
        prev_row := last
      end
    done;
    par_for nu (fun u ->
        let s0, s1 = units.(u) in
        for s = s0 to s1 - 1 do
          let row0, counts, js, _ = segs.(s) in
          let e = ref 0 in
          for r = 0 to Array.length counts - 1 do
            let i = row0 + r in
            let c =
              if r = 0 then fstart.(s) else row_ptr.(i + 1) - fwd_count.(i)
            in
            for d = !e to !e + counts.(r) - 1 do
              Buf.int_set cols (c + d - !e) (Int32.to_int (Buf.i32_get js d))
            done;
            e := !e + counts.(r)
          done
        done)
  end;
  Spgraph.certified ~symmetric:true ~n ~row_ptr ~cols

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
   state, on shared seeds.  The stream holds 4-byte columns, so n must
   be below 2^31 (checked before anything is allocated).

   [?stream_cap] overrides the initial pair-stream capacity (normally
   the binomial mean + 6 sigma) so tests can force the geometric-growth
   path; the sampled graph is identical for any value.  Returns the
   stream as one [csr_of_segments] segment. *)
let gnp_segments ?stream_cap g ~n ~p =
  if n < 0 then invalid_arg "Sparse.sample_gnp: n >= 0";
  if n >= 1 lsl 31 then invalid_arg "Sparse.sample_gnp: n < 2^31";
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
  let js = ref (Buf.i32_create_uninit cap0) in
  let cap = ref cap0 in
  let fwd_count = Array.make n 0 in
  let m = ref 0 in
  let grow () =
    (* Geometric growth, clamped to the pair count: [m] can never reach
       [total] at a push (there are at most [total] pushes), so the
       clamped doubling always yields cap' > m. *)
    let cap' = min (max 1 total) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.i32_create_uninit cap' in
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
        Buf.i32_set !js !m (Int32.of_int j);
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
          Buf.i32_set !js !m (Int32.of_int (!row + 1 + (!idx - !row_start)));
          fwd_count.(!row) <- fwd_count.(!row) + 1;
          incr m
        end
      done
    done
  end;
  [| (0, fwd_count, !js, !m) |]

let build ~n segs = Prof.span "sparse:build" (fun () -> csr_of_segments ~n segs)

let sample_gnp ?stream_cap g ~n ~p =
  build ~n
    (Prof.span "sparse:decode" (fun () -> gnp_segments ?stream_cap g ~n ~p))

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
(* bcc-lint: allow kern/unsafe-index — every words read follows the refill check that keeps wcur < avail <= words_cap = Buf.i64_length words, and the js write follows grow (), which keeps m < cap = Buf.i32_length !js *)
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
  let js = ref (Buf.i32_create_uninit cap0) in
  let cap = ref cap0 in
  let m = ref 0 in
  let grow () =
    let cap' = min (max 1 (hi - lo)) (max (2 * !cap) (!m + 1)) in
    let js' = Buf.i32_create_uninit cap' in
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
      Buf.i32_set !js !m (Int32.of_int (!row + 1 + (!idx - !row_start)));
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
let sharded_segments g ~n ~p =
  if n < 0 then invalid_arg "Sparse.sample_gnp_sharded: n >= 0";
  if n >= 1 lsl 30 then invalid_arg "Sparse.sample_gnp_sharded: n < 2^30";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Sparse.sample_gnp_sharded: p in [0,1]";
  let total = n * (n - 1) / 2 in
  (* The deterministic graphs (complete, empty) draw nothing on any
     stream, so [sample_gnp]'s decode builds them without touching
     [g]. *)
  if p >= 1.0 || p <= 0.0 || total = 0 then gnp_segments g ~n ~p
  else begin
    let tbl = make_skip_table p in
    let shards = shard_count total in
    let base = total / shards in
    let rem = total mod shards in
    let lo_of s = (base * s) + min s rem in
    let root = Prng.split g shard_salt in
    Par.map_array
      (fun s ->
        let child = Prng.split root s in
        let lo = lo_of s and hi = lo_of (s + 1) in
        if lo >= hi then (0, [||], Buf.i32_create_uninit 1, 0)
        else decode_shard ~n ~mean_per_pair:p tbl child ~lo ~hi)
      (Array.init shards Fun.id)
  end

let sample_gnp_sharded g ~n ~p =
  build ~n (Prof.span "sparse:decode" (fun () -> sharded_segments g ~n ~p))

(* Splice the clique on [cs] (sorted, distinct) into the pair stream
   [segs], so that one CSR build yields the planted instance.  Every
   clique row becomes its own one-row segment: the sorted union of its
   sampled pairs, gathered from every segment the row straddles, and
   the clique members above it — a clique pair the base graph already
   holds appears once, like the clique mask that
   [Planted.sample_planted_at] ORs into each clique row on the dense
   side.  Runs of other rows stay where
   they are as [Bigarray.Array1.sub] views of the decode buffers (a
   segment with no clique row passes through whole), so nothing but the
   k clique rows is copied.  Clique rows no segment covers (a row with
   no pair slot, such as n - 1) get their segment at their place in row
   order. *)
(* bcc-lint: allow kern/unsafe-index — a clique row's buffer holds its sampled pairs plus the kc - ci - 1 members above it, the most the merge can emit; every piece (js, off, len) is a row's slice of a segment whose per-row counts sum to m <= Buf.i32_length js (csr_of_segments checks the same) *)
let splice_clique segs cs =
  let kc = Array.length cs in
  let out = ref [] in
  let ci = ref 0 in
  (* The pieces (buffer, offset, length) of clique row [cs.(!ci)] met so
     far, latest first. *)
  let pieces = ref [] in
  let flush () =
    let c = cs.(!ci) in
    let parts = List.rev !pieces in
    let sampled = List.fold_left (fun a (_, _, len) -> a + len) 0 parts in
    let row = Buf.i32_create_uninit (sampled + kc - !ci - 1) in
    let u = ref 0 in
    let emit j =
      Buf.i32_set row !u (Int32.of_int j);
      incr u
    in
    let b = ref (!ci + 1) in
    List.iter
      (fun (js, off, len) ->
        for e = off to off + len - 1 do
          let x = Int32.to_int (Buf.i32_get js e) in
          while !b < kc && cs.(!b) < x do
            emit cs.(!b);
            incr b
          done;
          if !b < kc && cs.(!b) = x then incr b;
          emit x
        done)
      parts;
    while !b < kc do
      emit cs.(!b);
      incr b
    done;
    out := (c, [| !u |], row, !u) :: !out;
    pieces := [];
    incr ci
  in
  Array.iter
    (fun ((row0, counts, js, _) as seg) ->
      let len = Array.length counts in
      (* Rows [run, r) are the current run of non-clique rows; their
         pairs start at [run_off]. *)
      let run = ref 0 and run_off = ref 0 and off = ref 0 in
      let emit_run r =
        let pairs = !off - !run_off in
        out :=
          ( row0 + !run,
            Array.sub counts !run (r - !run),
            Bigarray.Array1.sub js !run_off pairs,
            pairs )
          :: !out
      in
      for r = 0 to len - 1 do
        let row = row0 + r in
        while !ci < kc && cs.(!ci) < row do
          flush ()
        done;
        if !ci < kc && cs.(!ci) = row then begin
          if r > !run then emit_run r;
          pieces := (js, !off, counts.(r)) :: !pieces;
          run := r + 1;
          run_off := !off + counts.(r)
        end;
        off := !off + counts.(r)
      done;
      if !run = 0 then out := seg :: !out
      else if !run < len then emit_run len)
    segs;
  while !ci < kc do
    flush ()
  done;
  Array.of_list (List.rev !out)

(* Planted instance over a base-graph decode: the clique vertex set is
   drawn first ([Prng.subset]) and the G(n, p) stream second —
   [Planted.sample_planted]'s draw order, so dense and sparse planted
   instances on a shared seed use the PRNG identically — then the clique
   is spliced into the pair stream and the CSR is built once. *)
let planted decode g ~n ~p ~k =
  let c = Prng.subset g ~n ~k in
  let segs = Prof.span "sparse:decode" (fun () -> decode g ~n ~p) in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  (build ~n (Prof.span "sparse:splice" (fun () -> splice_clique segs cs)), c)

(* Both planted samplers check their decode's bound on n before
   [Prng.subset] draws anything. *)
let sample_planted g ~n ~p ~k =
  if n >= 1 lsl 31 then invalid_arg "Sparse.sample_planted: n < 2^31";
  planted (fun g ~n ~p -> gnp_segments g ~n ~p) g ~n ~p ~k

(* Sharded twin: subset from the parent stream first (same position as
   [sample_planted]), then the sharded G(n, p) — whose shard children
   never touch the parent stream, so after this call the parent sits
   exactly one [subset] past where it started. *)
let sample_planted_sharded g ~n ~p ~k =
  if n >= 1 lsl 30 then invalid_arg "Sparse.sample_planted_sharded: n < 2^30";
  planted sharded_segments g ~n ~p ~k
