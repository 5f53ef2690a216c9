(* Packed bit-sliced compute kernels.

   Everything the experiments measure is executable mathematics — GF(2)
   linear algebra, exact enumeration over 2^n inputs, Walsh-Hadamard
   transforms — and all of it bottoms out in loops over packed int64
   words.  This module is the single home for those loops: [Gf2] works on
   flat word buffers packed from Bitvec rows, [Enum] on packed truth
   tables (64 inputs per word), [Wht] on in-place butterfly arrays.

   Hot storage is [Buf]: Bigarray-backed int64 and native-int buffers.
   An OCaml [int64 array] holds pointers to boxed elements, so every
   store in an inner loop costs a minor-heap allocation plus a GC write
   barrier; a typed [Bigarray.Array1] gives unboxed monomorphic loads and
   stores the GC never scans.  The packed GF(2) words and the
   Bron-Kerbosch scratch stack live on [Buf.i64] for exactly this reason
   (docs/PERFORMANCE.md).

   The naive implementations (per-bit, per-input) live outside the
   library, in test/oracle: every kernel is property-tested against its
   oracle in test/test_kern.ml and benchmarked against it by `bench kern`
   (docs/PERFORMANCE.md).

   Determinism contract: kernels are pure functions of their inputs.
   The only parallel path (Wht stages >= [Wht.par_threshold]) partitions
   elementwise-disjoint butterfly groups across domains, so results are
   byte-identical for every BCC_DOMAINS (docs/PARALLELISM.md). *)

let ctz v =
  if v = 0 then invalid_arg "Bcc_kern.ctz: zero";
  let rec go v acc = if v land 1 = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* ------------------------------------------------------ hot buffers *)

module Buf = struct
  (* GC-invisible flat buffers for the kernel inner loops.  The element
     types are pinned in the Bigarray kind, so [unsafe_get]/[unsafe_set]
     compile to single unboxed loads/stores — no boxed [Int64]s, no write
     barrier, nothing for the minor GC to do.  Accessors are unchecked by
     design (these are the innermost loops); every caller owns its
     indices, and the word-boundary property tests pin the semantics
     against the [Bitvec] oracles. *)

  type i64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* Native-int buffers (the CSR column arrays): [Bigarray.int] elements
     are unboxed 63-bit ints, so — unlike int32/int64 kinds — loads need
     no boxing even without flambda, and the buffer is still invisible to
     the GC (a plain [int array] of 10^7+ columns would be scanned by
     every major slice). *)
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let i64_create n : i64 =
    let b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
    Bigarray.Array1.fill b 0L;
    b

  let int_create n : ints =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill b 0;
    b

  external advise_hugepages : ints -> unit = "bcc_buf_advise_hugepages"
    [@@noalloc]

  (* 32 MB: the most glibc's dynamic mmap threshold can reach on 64-bit
     hosts, so a buffer this large is always a mapping of its own that
     [free] unmaps, never heap memory shared with smaller blocks. *)
  let hugepage_min_len = (32 lsl 20) / Bigarray.kind_size_in_bytes Bigarray.int

  (* No zero-fill: for buffers whose every slot is written before any
     read (the CSR fill passes, where the cursor prefix sums partition
     the buffer exactly) — at 10^7+ elements the wasted fill is a full
     extra memory pass.  Since that write touches every page anyway, a
     buffer of 32 MB or more is advised onto transparent huge pages
     (buf_stubs.c): its first touch then faults 2 MB at a time instead
     of 4 KB. *)
  let int_create_uninit n : ints =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    if n >= hugepage_min_len then advise_hugepages b;
    b

  (* 4-byte buffers, for values known to be below 2^31 (the samplers'
     pair streams, whose columns are vertex ids): half the memory traffic
     and first-touch page faults of [ints].  A load yields a boxed
     [int32] unless it is consumed at once, so call sites read
     [Int32.to_int (i32_get b i)] and write [i32_set b i (Int32.of_int x)],
     which ocamlopt compiles to one plain load or store without
     flambda.  Not zero-filled, like [int_create_uninit]. *)
  type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let i32_create_uninit n : i32 =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

  (* Monomorphic re-declarations of the Bigarray primitives: with the
     kind and layout pinned in the type, every call site compiles to a
     direct unboxed load/store even without flambda — going through a
     [let]-bound wrapper instead costs a call plus a boxed [Int64] per
     access (~8x on the xor kernel). *)
  external i64_length : i64 -> int = "%caml_ba_dim_1"
  external int_length : ints -> int = "%caml_ba_dim_1"
  external i32_length : i32 -> int = "%caml_ba_dim_1"
  external i64_get : i64 -> int -> int64 = "%caml_ba_unsafe_ref_1"
  external i64_set : i64 -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
  external int_get : ints -> int -> int = "%caml_ba_unsafe_ref_1"
  external int_set : ints -> int -> int -> unit = "%caml_ba_unsafe_set_1"
  external i32_get : i32 -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external i32_set : i32 -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"

  let i64_copy (b : i64) =
    let c =
      Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
        (Bigarray.Array1.dim b)
    in
    Bigarray.Array1.blit b c;
    c

  let int_of_array a = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a
  let int_to_array (b : ints) = Array.init (int_length b) (Bigarray.Array1.get b)
end

(* ------------------------------------------------------- GF(2) kernels *)

module Gf2 = struct
  type packed = { rows : int; cols : int; stride : int; words : Buf.i64 }

  let pack ~cols rows_arr =
    if cols < 0 then invalid_arg "Bcc_kern.Gf2.pack: negative cols";
    let rows = Array.length rows_arr in
    let stride = (cols + 63) / 64 in
    let words = Buf.i64_create (max 1 (rows * stride)) in
    for i = 0 to rows - 1 do
      let r = rows_arr.(i) in
      if Bitvec.length r <> cols then
        invalid_arg "Bcc_kern.Gf2.pack: ragged rows";
      for j = 0 to stride - 1 do
        Buf.i64_set words ((i * stride) + j) (Bitvec.unsafe_get_word r j)
      done
    done;
    { rows; cols; stride; words }

  (* bcc-lint: allow kern/unsafe-index — i < rows and j < stride, and pack sized words as rows * stride *)
  let unpack p =
    Array.init p.rows (fun i ->
        let v = Bitvec.create p.cols in
        for j = 0 to p.stride - 1 do
          Bitvec.set_word v j (Buf.i64_get p.words ((i * p.stride) + j))
        done;
        v)

  (* In-place transpose of a 64x64 bit block (one int64 per row, bit [c]
     of row [r] = element (r, c)): recursive block swaps at strides
     32/16/8/4/2/1 — Hacker's Delight 7-3, which is convention-agnostic
     because the transpose commutes with reversing both indices. *)
  let transpose64 a =
    if Array.length a <> 64 then
      invalid_arg "Bcc_kern.Gf2.transpose64: need 64 words";
    let j = ref 32 and m = ref 0xFFFFFFFFL in
    while !j <> 0 do
      let k = ref 0 in
      while !k < 64 do
        (* Swap the top-right block (rows k.., high bits) with the
           bottom-left one (rows k+j.., low bits): under the LSB-first
           convention (bit c = column c) this is the transposing swap;
           the Hacker's Delight orientation would anti-transpose. *)
        let x = a.(!k) and y = a.(!k + !j) in
        let t =
          Int64.logand (Int64.logxor (Int64.shift_right_logical x !j) y) !m
        in
        a.(!k) <- Int64.logxor x (Int64.shift_left t !j);
        a.(!k + !j) <- Int64.logxor y t;
        k := (!k + !j + 1) land lnot !j
      done;
      j := !j lsr 1;
      if !j <> 0 then m := Int64.logxor !m (Int64.shift_left !m !j)
    done

  (* [transpose64] on a 64-word [Buf.i64] block — same swaps, but the
     scratch loads and stores are unboxed so the per-block transpose
     allocates nothing. *)
  (* bcc-lint: allow kern/unsafe-index — caller passes a 64-word block (transpose's blk); the stride walk keeps k and k + j below 64 *)
  let transpose64_buf (a : Buf.i64) =
    let j = ref 32 and m = ref 0xFFFFFFFFL in
    while !j <> 0 do
      let k = ref 0 in
      while !k < 64 do
        let x = Buf.i64_get a !k and y = Buf.i64_get a (!k + !j) in
        let t =
          Int64.logand (Int64.logxor (Int64.shift_right_logical x !j) y) !m
        in
        Buf.i64_set a !k (Int64.logxor x (Int64.shift_left t !j));
        Buf.i64_set a (!k + !j) (Int64.logxor y t);
        k := (!k + !j + 1) land lnot !j
      done;
      j := !j lsr 1;
      if !j <> 0 then m := Int64.logxor !m (Int64.shift_left !m !j)
    done

  (* bcc-lint: allow kern/unsafe-index — blk is 64 words with t, u <= 63; source and output offsets are guarded by row < p.rows / orow < p.cols against the cols * stride allocations *)
  let transpose p =
    let stride = (p.rows + 63) / 64 in
    let words = Buf.i64_create (max 1 (p.cols * stride)) in
    let out = { rows = p.cols; cols = p.rows; stride; words } in
    let blk = Buf.i64_create 64 in
    for bi = 0 to stride - 1 do
      for bj = 0 to p.stride - 1 do
        for t = 0 to 63 do
          let row = (bi * 64) + t in
          Buf.i64_set blk t
            (if row < p.rows then Buf.i64_get p.words ((row * p.stride) + bj)
             else 0L)
        done;
        transpose64_buf blk;
        for u = 0 to 63 do
          let orow = (bj * 64) + u in
          if orow < p.cols then
            Buf.i64_set words ((orow * stride) + bi) (Buf.i64_get blk u)
        done
      done
    done;
    out

  (* Rank by word-parallel forward elimination on a scratch copy.  Rows
     below the pivot are already zero in every column left of [col]
     (pivot columns by elimination, pivotless columns because no
     candidate row had a 1), so swaps and xors start at the pivot word. *)
  (* bcc-lint: allow kern/unsafe-index — w copies the rows * stride packed words; every offset is r * stride + j with r < rows (rank, pivot <= i < rows) and j < stride *)
  let rank pk =
    let { rows; cols; stride; words } = pk in
    let w = Buf.i64_copy words in
    let bit_at base wi sh =
      Int64.logand (Int64.shift_right_logical (Buf.i64_get w (base + wi)) sh) 1L
      = 1L
    in
    let rank = ref 0 and col = ref 0 in
    while !rank < rows && !col < cols do
      let wi = !col lsr 6 and sh = !col land 63 in
      let pivot = ref (-1) and i = ref !rank in
      while !pivot < 0 && !i < rows do
        if bit_at (!i * stride) wi sh then pivot := !i else incr i
      done;
      if !pivot >= 0 then begin
        let pr = !rank * stride in
        if !pivot <> !rank then begin
          let qr = !pivot * stride in
          for j = wi to stride - 1 do
            let t = Buf.i64_get w (pr + j) in
            Buf.i64_set w (pr + j) (Buf.i64_get w (qr + j));
            Buf.i64_set w (qr + j) t
          done
        end;
        for r = !rank + 1 to rows - 1 do
          let rr = r * stride in
          if bit_at rr wi sh then
            for j = wi to stride - 1 do
              Buf.i64_set w (rr + j)
                (Int64.logxor (Buf.i64_get w (rr + j)) (Buf.i64_get w (pr + j)))
            done
        done;
        incr rank
      end;
      incr col
    done;
    !rank

  (* 16-bit trailing-zero-count table (an immutable string, one count per
     character, domain-safe like Bitvec's popcount16); entry 0 unused.
     The recursive [ctz] in the Gray fill below would cost a loop per
     table entry. *)
  let ctz16 =
    String.init 65536 (fun i -> Char.chr (if i = 0 then 16 else ctz i))

  (* Method of Four Russians: chunk the inner dimension into [bits]-wide
     groups; for each chunk, walk a Gray code over the chunk's selector
     values, building each table entry from its predecessor with one
     xor-row (entry gray(k) = entry gray(k-1) xor row (base + ctz k)),
     then accumulate one table row per selector of [a].  [bits] divides
     64, so a chunk's selector never straddles a word boundary.  Entry 0
     is never written: each chunk rewrites entries [1, entries) in Gray
     order (every entry derives from one already rewritten this chunk),
     so the table needs no clearing between chunks.

     The one- and two-word row cases (cols <= 128 — every experiment
     size) run straight-line instead of through the per-entry word loop;
     that loop's setup would otherwise dominate the fill, which is the
     bulk of the work at small row counts. *)
  (* Per-domain Gray-table scratch, grown on demand and reused across
     calls (the 16-bit table is 512 KiB per stride word — too big to
     allocate per product).  Entry 0 — words [0, stride) — must be zero
     (each chunk's Gray chain starts by reading it) and no fill ever
     writes it, so it is re-zeroed here: a previous call with a
     {e smaller} stride lays its entries over these words.  Every other
     entry the accumulate can select is rewritten by the chunk's fill
     before it is read, so reuse cannot leak state between calls, and
     the per-domain keying means no two domains ever share a table. *)
  let table_scratch = Par.lane_scratch (fun () -> ref (Buf.i64_create 0))

  (* bcc-lint: noalloc *)
  (* bcc-lint: allow perf/noalloc — the out buffer, result record, and per-chunk Gray-walk refs are the product being built (O(nchunks), not O(words)); the pin budget guards the per-word fill and accumulate loops, which stay unboxed *)
  let mul_chunked ~bits a b =
    if a.cols <> b.rows then invalid_arg "Bcc_kern.Gf2.mul: dimension mismatch";
    let stride = (b.cols + 63) / 64 in
    let out = Buf.i64_create (max 1 (a.rows * stride)) in
    let table =
      let cell = table_scratch () in
      let need = (1 lsl bits) * stride in
      if Buf.i64_length !cell < need then cell := Buf.i64_create need;
      let t = !cell in
      for j = 0 to stride - 1 do
        Buf.i64_set t j 0L
      done;
      t
    in
    let aw = a.words and bw = b.words in
    let astride = a.stride in
    let nchunks = (a.cols + bits - 1) / bits in
    for c = 0 to nchunks - 1 do
      let base = c * bits in
      let nbits = min bits (a.cols - base) in
      let entries = 1 lsl nbits in
      (if stride = 1 then begin
         let gp = ref 0 in
         for k = 1 to entries - 1 do
           let bit = Char.code (String.unsafe_get ctz16 k) in
           let g = k lxor (k lsr 1) in
           Buf.i64_set table g
             (Int64.logxor (Buf.i64_get table !gp) (Buf.i64_get bw (base + bit)));
           gp := g
         done
       end
       else if stride = 2 then begin
         let gp = ref 0 in
         for k = 1 to entries - 1 do
           let bit = Char.code (String.unsafe_get ctz16 k) in
           let g = (k lxor (k lsr 1)) * 2 in
           let br = (base + bit) * 2 in
           let p = !gp in
           Buf.i64_set table g
             (Int64.logxor (Buf.i64_get table p) (Buf.i64_get bw br));
           Buf.i64_set table (g + 1)
             (Int64.logxor (Buf.i64_get table (p + 1)) (Buf.i64_get bw (br + 1)));
           gp := g
         done
       end
       else begin
         let gp = ref 0 in
         for k = 1 to entries - 1 do
           let bit = Char.code (String.unsafe_get ctz16 k) in
           let g = (k lxor (k lsr 1)) * stride in
           let br = (base + bit) * stride in
           let p = !gp in
           for j = 0 to stride - 1 do
             Buf.i64_set table (g + j)
               (Int64.logxor (Buf.i64_get table (p + j))
                  (Buf.i64_get bw (br + j)))
           done;
           gp := g
         done
       end);
      let wi = base lsr 6 and sh = base land 63 in
      let mask = entries - 1 in
      if stride = 1 then begin
        let aoff = ref wi in
        for i = 0 to a.rows - 1 do
          let sel =
            Int64.to_int (Int64.shift_right_logical (Buf.i64_get aw !aoff) sh)
            land mask
          in
          if sel <> 0 then
            Buf.i64_set out i
              (Int64.logxor (Buf.i64_get out i) (Buf.i64_get table sel));
          aoff := !aoff + astride
        done
      end
      else if stride = 2 then begin
        let aoff = ref wi and dst = ref 0 in
        for _i = 0 to a.rows - 1 do
          let sel =
            Int64.to_int (Int64.shift_right_logical (Buf.i64_get aw !aoff) sh)
            land mask
          in
          if sel <> 0 then begin
            let src = sel * 2 and d = !dst in
            Buf.i64_set out d
              (Int64.logxor (Buf.i64_get out d) (Buf.i64_get table src));
            Buf.i64_set out (d + 1)
              (Int64.logxor (Buf.i64_get out (d + 1))
                 (Buf.i64_get table (src + 1)))
          end;
          aoff := !aoff + astride;
          dst := !dst + 2
        done
      end
      else begin
        let aoff = ref wi and dst = ref 0 in
        for _i = 0 to a.rows - 1 do
          let sel =
            Int64.to_int (Int64.shift_right_logical (Buf.i64_get aw !aoff) sh)
            land mask
          in
          if sel <> 0 then begin
            let src = sel * stride and d = !dst in
            for j = 0 to stride - 1 do
              Buf.i64_set out (d + j)
                (Int64.logxor (Buf.i64_get out (d + j))
                   (Buf.i64_get table (src + j)))
            done
          end;
          aoff := !aoff + astride;
          dst := !dst + stride
        done
      end
    done;
    { rows = a.rows; cols = b.cols; stride; words = out }

  (* 16-bit chunks halve the accumulate passes but cost 256x the table
     fill (65536 vs 256 entries per chunk).  Per chunk the fill grows by
     ~65280 row-xors while the accumulate saves one pass over [a.rows]
     rows — so the wide table only pays past ~64k rows. *)
  let mul_wide_min_rows = 65536

  let mul_wide a b = mul_chunked ~bits:16 a b

  let mul a b =
    if a.rows >= mul_wide_min_rows then mul_chunked ~bits:16 a b
    else mul_chunked ~bits:8 a b

  (* Profiler shims over the measured entry points: one flag read when
     disabled, and the word-op charge is derived from operand shapes, so
     the counter is a pure function of the seeded computation. *)
  let transpose p =
    if Prof.enabled () then
      Prof.span "kern:gf2.transpose" (fun () ->
          Prof.add Prof.Word_ops (((p.rows + 63) / 64) * p.stride * 64);
          transpose p)
    else transpose p

  let rank pk =
    if Prof.enabled () then
      Prof.span "kern:gf2.rank" (fun () ->
          Prof.add Prof.Word_ops (pk.rows * pk.stride);
          rank pk)
    else rank pk

  let mul_charge ~bits a b =
    a.rows * ((b.cols + 63) / 64) * ((a.cols + bits - 1) / bits)

  let mul a b =
    if Prof.enabled () then
      Prof.span "kern:gf2.mul" (fun () ->
          let bits = if a.rows >= mul_wide_min_rows then 16 else 8 in
          Prof.add Prof.Word_ops (mul_charge ~bits a b);
          mul a b)
    else mul a b

  let mul_wide a b =
    if Prof.enabled () then
      Prof.span "kern:gf2.mul" (fun () ->
          Prof.add Prof.Word_ops (mul_charge ~bits:16 a b);
          mul_wide a b)
    else mul_wide a b
end

(* ------------------------------------------------------- graph kernels *)

module Graph = struct
  (* Kernels for the planted-clique experiments.  A directed graph is its
     adjacency rows: [rows.(i)] has bit [j] iff edge i -> j, diagonal
     zero — exactly what [Digraph] stores and what each BCAST processor
     receives as input.  Everything here is observationally identical to
     the per-bit implementations it replaced (kept in test/oracle); the only
     difference is packed words and reused scratch. *)

  (* A land A^T in packed words: one block transpose + one word-AND pass,
     instead of an O(n^2) has_edge closure per entry.  The diagonal of
     the result is zero because adjacency diagonals are. *)
  let bidirectional_core rows =
    let n = Array.length rows in
    let a = Gf2.pack ~cols:n rows in
    let at = Gf2.transpose a in
    let w = a.Gf2.words and wt = at.Gf2.words in
    for i = 0 to Buf.i64_length w - 1 do
      Buf.i64_set w i (Int64.logand (Buf.i64_get w i) (Buf.i64_get wt i))
    done;
    Gf2.unpack a

  (* Bron-Kerbosch with pivoting, on a scratch stack of raw packed words:
     depth [d] owns flat P/X/candidate word buffers plus a *support list*
     — the ascending indices of words where P or X can still be nonzero.
     Every scan (maximality check, pivot scoring, child construction) runs
     over the support only; since the skipped words are logically zero and
     both the word order and the LSB-first bit extraction match
     [Bitvec.iter_set], the traversal order, pivot choice, and returned
     clique are exactly [Oracle.max_clique]'s.  Deep nodes touch O(live
     words) instead of O(n/64), and nothing allocates per node. *)
  let max_clique adj vertices =
    let n = Array.length adj in
    if n = 0 then []
    else begin
      let nwords = (n + 63) / 64 in
      (* Row-major copy of the adjacency words: row [v] at [v * nwords].
         The whole scratch stack lives on [Buf.i64]: stores in the
         per-node loops below would each box an [Int64] on an OCaml
         array, and deep searches do millions of them. *)
      let aw = Buf.i64_create (n * nwords) in
      for v = 0 to n - 1 do
        for w = 0 to nwords - 1 do
          Buf.i64_set aw ((v * nwords) + w) (Bitvec.unsafe_get_word adj.(v) w)
        done
      done;
      (* Words outside a depth's support may hold stale garbage from
         earlier siblings; they are never read. *)
      let pw = Buf.i64_create ((n + 1) * nwords) in
      let xw = Buf.i64_create ((n + 1) * nwords) in
      let cw = Buf.i64_create ((n + 1) * nwords) in
      let sup = Array.make ((n + 1) * nwords) 0 in
      let nsup = Array.make (n + 1) 0 in
      (* P-only support (pivot scores and candidates involve P alone). *)
      let psup = Array.make ((n + 1) * nwords) 0 in
      (* Whole-row degrees: |P ∩ N(u)| <= degs.(u), so a vertex with
         degs.(u) <= pivot_score can be skipped without scoring — an upper
         bound, never a different argmax. *)
      let degs = Array.make n 0 in
      for v = 0 to n - 1 do
        degs.(v) <- Bitvec.popcount adj.(v)
      done;
      let best = ref [] in
      let best_size = ref 0 in
      let rec expand r r_size d =
        let base = d * nwords in
        let ns = nsup.(d) in
        let nonempty = ref false in
        let np = ref 0 in
        let psize = ref 0 in
        for si = 0 to ns - 1 do
          let w = Array.unsafe_get sup (base + si) in
          let pv = Buf.i64_get pw (base + w) in
          if pv <> 0L then begin
            Array.unsafe_set psup (base + !np) w;
            incr np;
            psize := !psize + Bitvec.popcount_word pv;
            nonempty := true
          end
          else if Buf.i64_get xw (base + w) <> 0L then nonempty := true
        done;
        if not !nonempty then begin
          if r_size > !best_size then begin
            best := r;
            best_size := r_size
          end
        end
        else if r_size + !psize <= !best_size then
          (* Branch-and-bound: even taking all of P, this subtree cannot
             strictly beat the incumbent, and best-updates require strict
             improvement — so it cannot update [best] at all.  Skipping it
             leaves the sequence of updates, hence the returned clique,
             exactly [Oracle.max_clique]'s. *)
          ()
        else begin
          (* Choose the pivot maximizing |P ∩ N(pivot)|, P's bits first
             then X's — iter_set order on the logical vectors.  Strict [>]
             keeps the first maximum, so two exact prunings apply: skip
             vertices whose whole-row degree cannot beat the running
             score, and stop outright once the score reaches |P| (later
             vertices can at most tie). *)
          let pivot = ref (-1) in
          let pivot_score = ref (-1) in
          let consider u =
            if Array.unsafe_get degs u > !pivot_score then begin
              let row = u * nwords in
              let score = ref 0 in
              for si = 0 to !np - 1 do
                let w = Array.unsafe_get psup (base + si) in
                score :=
                  !score
                  + Bitvec.popcount_word
                      (Int64.logand
                         (Buf.i64_get pw (base + w))
                         (Buf.i64_get aw (row + w)))
              done;
              if !score > !pivot_score then begin
                pivot := u;
                pivot_score := !score;
                if !score = !psize then raise Exit
              end
            end
          in
          let iter_bits nw supb (buf : Buf.i64) f =
            for si = 0 to nw - 1 do
              let w = Array.unsafe_get supb (base + si) in
              let bits = ref (Buf.i64_get buf (base + w)) in
              while !bits <> 0L do
                let low = Int64.logand !bits (Int64.neg !bits) in
                f ((w * 64) + Bitvec.popcount_word (Int64.sub low 1L));
                bits := Int64.logxor !bits low
              done
            done
          in
          (try
             iter_bits !np psup pw consider;
             iter_bits ns sup xw consider
           with Exit -> ());
          (* P ∪ X nonempty ⇒ consider ran ⇒ a pivot was chosen. *)
          let prow = !pivot * nwords in
          for si = 0 to !np - 1 do
            let w = Array.unsafe_get psup (base + si) in
            Buf.i64_set cw (base + w)
              (Int64.logand
                 (Buf.i64_get pw (base + w))
                 (Int64.lognot (Buf.i64_get aw (prow + w))))
          done;
          (* [cw] is a fixed snapshot; P/X mutate underneath it exactly as
             in the allocating version. *)
          iter_bits !np psup cw (fun v ->
              let row = v * nwords in
              let base' = base + nwords in
              let k = ref 0 in
              for si = 0 to ns - 1 do
                let w = Array.unsafe_get sup (base + si) in
                let nv = Buf.i64_get aw (row + w) in
                let pv = Int64.logand (Buf.i64_get pw (base + w)) nv in
                let xv = Int64.logand (Buf.i64_get xw (base + w)) nv in
                Buf.i64_set pw (base' + w) pv;
                Buf.i64_set xw (base' + w) xv;
                if pv <> 0L || xv <> 0L then begin
                  Array.unsafe_set sup (base' + !k) w;
                  incr k
                end
              done;
              nsup.(d + 1) <- !k;
              expand (v :: r) (r_size + 1) (d + 1);
              let wv = base + (v lsr 6) in
              let bit = Int64.shift_left 1L (v land 63) in
              Buf.i64_set pw wv
                (Int64.logand (Buf.i64_get pw wv) (Int64.lognot bit));
              Buf.i64_set xw wv (Int64.logor (Buf.i64_get xw wv) bit))
        end
      in
      for w = 0 to nwords - 1 do
        Buf.i64_set pw w (Bitvec.get_word vertices w);
        sup.(w) <- w
      done;
      nsup.(0) <- nwords;
      expand [] 0 0;
      List.sort Int.compare !best
    end

  (* Triangles of an undirected adjacency (e.g. the bidirectional core),
     each counted once as i < j < l: the suffix constraint is a masked
     word count, the intersections never materialize. *)
  let count_triangles core =
    let n = Array.length core in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let ni = core.(i) in
      Bitvec.iter_set
        (fun j ->
          if j > i then
            total := !total + Bitvec.popcount_and2_above ni core.(j) ~above:j)
        ni
    done;
    !total

  (* K4s as i < j < l < m, with one scratch vector for N(i) ∩ N(j) reused
     across the whole count. *)
  let count_k4 core =
    let n = Array.length core in
    let total = ref 0 in
    if n > 0 then begin
      let nij = Bitvec.create n in
      for i = 0 to n - 1 do
        let ni = core.(i) in
        Bitvec.iter_set
          (fun j ->
            if j > i then begin
              Bitvec.logand_into ~dst:nij ni core.(j);
              Bitvec.iter_set
                (fun l ->
                  if l > j then
                    total :=
                      !total + Bitvec.popcount_and2_above nij core.(l) ~above:l)
                nij
            end)
          ni
      done
    end;
    !total

  (* Profiler shims; charges are word volumes of the packed scans. *)
  let words_of n = (n + 63) / 64

  let bidirectional_core rows =
    if Prof.enabled () then
      Prof.span "kern:graph.bidirectional_core" (fun () ->
          let n = Array.length rows in
          Prof.add Prof.Word_ops (3 * n * words_of n);
          bidirectional_core rows)
    else bidirectional_core rows

  let max_clique adj vertices =
    if Prof.enabled () then
      Prof.span "kern:graph.max_clique" (fun () ->
          let n = Array.length adj in
          Prof.add Prof.Word_ops (n * words_of n);
          max_clique adj vertices)
    else max_clique adj vertices

  let count_triangles core =
    if Prof.enabled () then
      Prof.span "kern:graph.count_triangles" (fun () ->
          let n = Array.length core in
          Prof.add Prof.Word_ops (n * words_of n);
          count_triangles core)
    else count_triangles core

  let count_k4 core =
    if Prof.enabled () then
      Prof.span "kern:graph.count_k4" (fun () ->
          let n = Array.length core in
          Prof.add Prof.Word_ops (n * words_of n);
          count_k4 core)
    else count_k4 core
end

(* ------------------------------------------------- sparse graph kernels *)

module Spgraph = struct
  (* Compressed sparse rows for the n = 10^5..10^6 regime, where the
     dense bit matrix wastes O(n^2) bits on absent edges: [row_ptr] has
     n + 1 offsets into [cols], row i's columns are
     [cols.(row_ptr.(i)) .. cols.(row_ptr.(i+1) - 1)], strictly ascending
     with no diagonal.  The columns live on a [Buf.ints] so a 10^7-entry
     graph costs the GC nothing.

     Every kernel establishes the CSR invariants once at entry
     ([check_t]: a scan of a caller's arrays, a no-op on a [certified]
     builder's output) and then runs its inner loops on unchecked [Buf]
     accesses; the invariants make every derived index in-bounds.  The
     per-vertex loops are sharded over fixed-grain row ranges
     ([sum_over_rows]): the chunk boundaries depend only on n — never on
     the pool size — and the integer partials are reduced left to right,
     so every result is byte-identical for every BCC_DOMAINS
     (docs/PARALLELISM.md).  The dense [Graph] kernels remain the in-run
     equality oracle at n <= 512 (test/test_sparse.ml, `bench sparse`). *)

  (* [checked] says the column invariants hold: either a [check_t] pass
     proved them, or the graph came out of one of the library's own
     builders ([certified]), which write them by construction.  The CSR
     arrays are immutable after construction everywhere in the tree, so
     once set the flag stays true.  Kernels still call [check_t] at
     entry; the flag turns the n = 10^6 regime's repeated O(n + m) scans
     (every [degree_sums] during recovery paid a ~10^9-entry walk) into
     at most one scan per graph.  The only write is the monotone
     [false -> true] after a full pass, so concurrent readers in sharded
     kernels are safe.  [symmetric] is the constructing caller's
     promise, never checked (see [make_symmetric]). *)
  type t = {
    n : int;
    row_ptr : int array;
    cols : Buf.ints;
    symmetric : bool;
    mutable checked : bool;
  }

  let vertex_count t = t.n

  (* Directed edge count — entries, i.e. [Digraph.edge_count]'s
     convention (a symmetric graph counts each undirected edge twice). *)
  let edge_count t = t.row_ptr.(t.n)

  let check_vertex t i =
    if i < 0 || i >= t.n then invalid_arg "Spgraph: vertex out of range"

  (* Fixed-grain row-range sharding.  256 rows per chunk keeps a chunk's
     work around 10^5..10^6 column touches in the sparse regimes the
     kernels target — coarse enough to amortize dispatch, fine enough to
     load-balance — and, critically, the chunking is a function of n
     alone, so the partials (and their left-to-right integer sum) are the
     same whatever the domain count. *)
  let grain = 256

  let chunk_ranges n f =
    let chunks = ((n - 1) / grain) + 1 in
    if chunks = 1 then [| f 0 n |]
    else
      Par.map_array
        (fun c -> f (c * grain) (min n ((c + 1) * grain)))
        (Array.init chunks Fun.id)

  let sum_over_rows n f = Array.fold_left ( + ) 0 (chunk_ranges n f)

  (* The column checks of rows [lo, hi): the first failing row's message,
     rows in ascending order. *)
  (* bcc-lint: allow kern/unsafe-index — scan_rows runs only after check_t has proved the offsets monotone from 0 to Buf.int_length cols, so every idx in [row_ptr.(i), row_ptr.(i+1)) is in bounds *)
  let scan_rows t lo hi =
    match
      for i = lo to hi - 1 do
        let prev = ref (-1) in
        for idx = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
          let j = Buf.int_get t.cols idx in
          if j <= !prev then invalid_arg "Spgraph: row not strictly ascending";
          if j < 0 || j >= t.n then invalid_arg "Spgraph: column out of range";
          if j = i then invalid_arg "Spgraph: diagonal entry";
          prev := j
        done
      done
    with
    | () -> None
    | exception Invalid_argument msg -> Some msg

  (* The O(n) offset checks: the right count and endpoints, monotone.
     They are what puts every row's slice inside [cols], which every
     unchecked row read relies on. *)
  let check_offsets t =
    if t.n < 0 then invalid_arg "Spgraph: negative vertex count";
    if Array.length t.row_ptr <> t.n + 1 then
      invalid_arg "Spgraph: row_ptr must have n + 1 offsets";
    if t.row_ptr.(0) <> 0 then invalid_arg "Spgraph: row_ptr must start at 0";
    if t.row_ptr.(t.n) <> Buf.int_length t.cols then
      invalid_arg "Spgraph: row_ptr must end at the column count";
    for i = 0 to t.n - 1 do
      if t.row_ptr.(i) > t.row_ptr.(i + 1) then
        invalid_arg "Spgraph: row_ptr must be monotone"
    done

  (* Full invariant scan, O(n + m): offsets monotone with the right
     endpoints, every row strictly ascending, in range, diagonal-free.
     Kernels call this once before entering their unchecked loops.  The
     offsets are proved monotone before any column is read, so every
     row's slice lies inside [cols]; the column scan then runs on
     [grain]-row chunks in parallel, each stopping at its first failing
     row, and the lowest failing chunk's message is raised — the message
     the sequential scan would raise, at any domain count. *)
  let check_t t =
    if not t.checked then begin
      check_offsets t;
      let scan () =
        let failures = Array.to_list (chunk_ranges t.n (scan_rows t)) in
        Option.iter invalid_arg (List.find_map Fun.id failures)
      in
      Prof.span "kern:spgraph.check" scan;
      t.checked <- true
    end

  let create ~symmetric ~n ~row_ptr ~cols =
    let t = { n; row_ptr; cols; symmetric; checked = false } in
    check_t t;
    t

  let make = create ~symmetric:false
  let make_symmetric = create ~symmetric:true

  (* The library's own builders ([Sparse]'s CSR build and
     [bidirectional_core] below) write valid rows by construction, so
     they skip the O(m) column scan, a full pass over the largest buffer
     of a sampled instance; test_sparse.ml re-scans every output it
     builds. *)
  let certified ~symmetric ~n ~row_ptr ~cols =
    let t = { n; row_ptr; cols; symmetric; checked = true } in
    check_offsets t;
    t

  let degree t i =
    check_vertex t i;
    t.row_ptr.(i + 1) - t.row_ptr.(i)

  let iter_row t i f =
    check_vertex t i;
    for idx = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f (Buf.int_get t.cols idx)
    done

  (* Galloping membership: double the probe offset until it passes [j]
     (so runs of nearby queries cost O(log distance), not O(log degree)),
     then binary-search the bracketed window. *)
  let mem t i j =
    check_vertex t i;
    check_vertex t j;
    let base = t.row_ptr.(i) in
    let len = t.row_ptr.(i + 1) - base in
    if len = 0 then false
    else begin
      let probe = ref 1 in
      while !probe < len && Buf.int_get t.cols (base + !probe) < j do
        probe := !probe lsl 1
      done;
      let lo = ref (!probe lsr 1) and hi = ref (min !probe (len - 1)) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let v = Buf.int_get t.cols (base + mid) in
        if v = j then found := true
        else if v < j then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    end

  (* |N(i) ∩ N(j)| by sorted-merge intersection of the two rows. *)
  let common_count t i j =
    check_vertex t i;
    check_vertex t j;
    let a = ref t.row_ptr.(i) and b = ref t.row_ptr.(j) in
    let ae = t.row_ptr.(i + 1) and be = t.row_ptr.(j + 1) in
    let count = ref 0 in
    while !a < ae && !b < be do
      let x = Buf.int_get t.cols !a and y = Buf.int_get t.cols !b in
      if x < y then incr a
      else if y < x then incr b
      else begin
        incr count;
        incr a;
        incr b
      end
    done;
    !count

  (* Keep edge (i, j) iff (j, i) is also present — [Digraph]'s A land A^T
     core.  Build the transpose CSR in one O(n + m) counting-sort pass
     (the row-major scatter emits source vertices in ascending order, so
     every transpose row lands sorted), then row i's survivors are the
     sorted-merge intersection of row i with transpose-row i: O(m) total,
     no per-entry binary search.  Two sharded merge passes over disjoint
     row ranges: per-row survivor counts (then a sequential prefix sum
     for the new offsets), then the fill, each row writing its own output
     segment. *)
  let bidirectional_core t =
    check_t t;
    let n = t.n in
    let m = t.row_ptr.(n) in
    let tr_ptr = Array.make (n + 1) 0 in
    for idx = 0 to m - 1 do
      let j = Buf.int_get t.cols idx in
      tr_ptr.(j + 1) <- tr_ptr.(j + 1) + 1
    done;
    for j = 0 to n - 1 do
      tr_ptr.(j + 1) <- tr_ptr.(j + 1) + tr_ptr.(j)
    done;
    (* Uninitialized is safe: the scatter writes exactly in-degree(j)
       entries into transpose row j, and the cursor prefix sums partition
       the buffer. *)
    let tr_cols = Buf.int_create_uninit m in
    let cursor = Array.init n (fun j -> tr_ptr.(j)) in
    for i = 0 to n - 1 do
      for idx = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = Buf.int_get t.cols idx in
        Buf.int_set tr_cols cursor.(j) i;
        cursor.(j) <- cursor.(j) + 1
      done
    done;
    (* Merge row i (out-neighbours) with transpose row i (in-neighbours);
       [emit] receives each survivor in ascending order. *)
    let merge_row i emit =
      let a = ref t.row_ptr.(i) and b = ref tr_ptr.(i) in
      let ae = t.row_ptr.(i + 1) and be = tr_ptr.(i + 1) in
      while !a < ae && !b < be do
        let x = Buf.int_get t.cols !a and y = Buf.int_get tr_cols !b in
        if x < y then incr a
        else if y < x then incr b
        else begin
          emit x;
          incr a;
          incr b
        end
      done
    in
    let keep = Array.make (max 1 n) 0 in
    let count_range lo hi =
      let kept = ref 0 in
      for i = lo to hi - 1 do
        let k = ref 0 in
        merge_row i (fun _ -> incr k);
        keep.(i) <- !k;
        kept := !kept + !k
      done;
      !kept
    in
    let total = sum_over_rows n count_range in
    let row_ptr = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      row_ptr.(i + 1) <- row_ptr.(i) + keep.(i)
    done;
    (* Uninitialized is safe: the fill pass writes exactly [keep.(i)]
       entries into row i's segment, and the segments partition the
       buffer ([row_ptr] is their prefix sum). *)
    let cols = Buf.int_create_uninit total in
    let fill_range lo hi =
      for i = lo to hi - 1 do
        let out = ref row_ptr.(i) in
        merge_row i (fun j ->
            Buf.int_set cols !out j;
            incr out)
      done;
      0
    in
    ignore (sum_over_rows n fill_range);
    (* Each row is an ascending merge of two checked rows. *)
    certified ~symmetric:false ~n ~row_ptr ~cols

  (* First offset in row i whose column exceeds i — the row's forward
     (upper-triangle) suffix.  On a symmetric graph the forward lists are
     exactly the ordered adjacency the triangle/K4 merges need. *)
  let fwd_starts t =
    check_t t;
    Array.init t.n (fun i ->
        let lo = ref t.row_ptr.(i) and hi = ref t.row_ptr.(i + 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if Buf.int_get t.cols mid <= i then lo := mid + 1 else hi := mid
        done;
        !lo)

  (* Triangles of a symmetric adjacency, each counted once as i < j < l,
     by mark-and-scan: stamp row i's forward neighbours into a per-chunk
     byte map, then for each forward neighbour j probe j's own forward
     list against the map — every hit l is a common forward neighbour
     with l > j > i, so each triangle lands exactly once.  Same count as
     [Graph.count_triangles] on the dense rows, reached in
     sum over forward edges (i, j) of fwd-degree(j) O(1) byte probes —
     cheaper than both the dense word scans (n/64 words per edge) and a
     suffix merge per edge (which re-walks row i's tail for every j). *)
  let count_triangles t =
    check_t t;
    let fs = fwd_starts t in
    let range lo hi =
      let mark = Bytes.make (max 1 t.n) '\000' in
      let total = ref 0 in
      for i = lo to hi - 1 do
        let rs = fs.(i) and re = t.row_ptr.(i + 1) in
        for idx = rs to re - 1 do
          Bytes.unsafe_set mark (Buf.int_get t.cols idx) '\001'
        done;
        for idx = rs to re - 1 do
          let j = Buf.int_get t.cols idx in
          (* Branchless accumulate: the map holds 0/1 bytes, so the probe
             is an add, not a rarely-taken conditional. *)
          for jdx = fs.(j) to t.row_ptr.(j + 1) - 1 do
            total :=
              !total + Char.code (Bytes.unsafe_get mark (Buf.int_get t.cols jdx))
          done
        done;
        for idx = rs to re - 1 do
          Bytes.unsafe_set mark (Buf.int_get t.cols idx) '\000'
        done
      done;
      !total
    in
    sum_over_rows t.n range

  (* K4s as i < j < l < m: materialize the forward common neighbours of
     (i, j) once into a per-chunk scratch row (all > j, ascending), then
     for each l in it count the later scratch entries adjacent to l by
     merging with l's forward list — the sparse transcription of
     [Graph.count_k4]'s reused intersection vector. *)
  let count_k4 t =
    check_t t;
    let fs = fwd_starts t in
    let maxdeg = ref 0 in
    for i = 0 to t.n - 1 do
      let d = t.row_ptr.(i + 1) - t.row_ptr.(i) in
      if d > !maxdeg then maxdeg := d
    done;
    let maxdeg = !maxdeg in
    let range lo hi =
      let scratch = Array.make (max 1 maxdeg) 0 in
      let total = ref 0 in
      for i = lo to hi - 1 do
        let re = t.row_ptr.(i + 1) in
        for idx = fs.(i) to re - 1 do
          let j = Buf.int_get t.cols idx in
          let a = ref (idx + 1) and b = ref fs.(j) in
          let be = t.row_ptr.(j + 1) in
          let m = ref 0 in
          while !a < re && !b < be do
            let x = Buf.int_get t.cols !a and y = Buf.int_get t.cols !b in
            if x < y then incr a
            else if y < x then incr b
            else begin
              Array.unsafe_set scratch !m x;
              incr m;
              incr a;
              incr b
            end
          done;
          for si = 0 to !m - 1 do
            let l = Array.unsafe_get scratch si in
            let a = ref (si + 1) and b = ref fs.(l) in
            let be = t.row_ptr.(l + 1) in
            while !a < !m && !b < be do
              let x = Array.unsafe_get scratch !a
              and y = Buf.int_get t.cols !b in
              if x < y then incr a
              else if y < x then incr b
              else begin
                incr total;
                incr a;
                incr b
              end
            done
          done
        done
      done;
      !total
    in
    sum_over_rows t.n range

  (* Profiler shims; charges are column volumes of the sparse scans. *)
  let bidirectional_core t =
    if Prof.enabled () then
      Prof.span "kern:spgraph.bidirectional_core" (fun () ->
          Prof.add Prof.Word_ops (2 * edge_count t);
          bidirectional_core t)
    else bidirectional_core t

  let count_triangles t =
    if Prof.enabled () then
      Prof.span "kern:spgraph.count_triangles" (fun () ->
          Prof.add Prof.Word_ops (edge_count t);
          count_triangles t)
    else count_triangles t

  let count_k4 t =
    if Prof.enabled () then
      Prof.span "kern:spgraph.count_k4" (fun () ->
          Prof.add Prof.Word_ops (edge_count t);
          count_k4 t)
    else count_k4 t
end

(* ------------------------------------------------- enumeration kernels *)

module Enum = struct
  type table = { n : int; words : int64 array }

  let max_arity = 24

  let check_arity n =
    if n < 0 || n > max_arity then
      invalid_arg "Bcc_kern.Enum: arity out of range [0, 24]"

  let word_count n = ((1 lsl n) + 63) / 64

  let set_bit words x =
    words.(x lsr 6) <- Int64.logor words.(x lsr 6) (Int64.shift_left 1L (x land 63))

  let of_bytes n bytes =
    check_arity n;
    if Bytes.length bytes <> 1 lsl n then
      invalid_arg "Bcc_kern.Enum.of_bytes: wrong table size";
    let words = Array.make (word_count n) 0L in
    for x = 0 to (1 lsl n) - 1 do
      if Bytes.unsafe_get bytes x <> '\000' then set_bit words x
    done;
    { n; words }

  let get t x =
    if x < 0 || x >= 1 lsl t.n then invalid_arg "Bcc_kern.Enum.get";
    Int64.logand (Int64.shift_right_logical t.words.(x lsr 6) (x land 63)) 1L = 1L

  let count t =
    Array.fold_left (fun acc w -> acc + Bitvec.popcount_word w) 0 t.words

  (* Within-word selection pattern for low coordinate [i] (< 6): the bits
     whose input has x_i = 1. *)
  let low_pattern i =
    match i with
    | 0 -> 0xAAAAAAAAAAAAAAAAL
    | 1 -> 0xCCCCCCCCCCCCCCCCL
    | 2 -> 0xF0F0F0F0F0F0F0F0L
    | 3 -> 0xFF00FF00FF00FF00L
    | 4 -> 0xFFFF0000FFFF0000L
    | _ -> 0xFFFFFFFF00000000L

  (* |{x ⊇ mask : f(x) = 1}|: coordinates < 6 select bits within each
     word by a constant pattern; coordinates >= 6 select whole words by
     their word index, enumerated with the standard subset trick over the
     free high bits. *)
  let count_forced_ones t ~mask =
    if mask < 0 || mask >= 1 lsl t.n then
      invalid_arg "Bcc_kern.Enum.count_forced_ones: mask out of range";
    let lowpat = ref (-1L) in
    for i = 0 to 5 do
      if mask land (1 lsl i) <> 0 then
        lowpat := Int64.logand !lowpat (low_pattern i)
    done;
    let nwords = Array.length t.words in
    let hi = mask lsr 6 in
    let free = lnot hi land (nwords - 1) in
    let acc = ref 0 in
    let s = ref free and continue = ref true in
    while !continue do
      acc :=
        !acc + Bitvec.popcount_word (Int64.logand t.words.(hi lor !s) !lowpat);
      if !s = 0 then continue := false else s := (!s - 1) land free
    done;
    !acc

  (* |{x : f(x) <> f(x xor e_i)}|: xor the table with itself shifted by
     2^i (within words for i < 6, across word pairs for i >= 6), count
     each differing pair once on its x_i = 0 side, then double. *)
  let count_flips t ~i =
    if i < 0 || i >= t.n then invalid_arg "Bcc_kern.Enum.count_flips";
    let acc = ref 0 in
    if i < 6 then begin
      let s = 1 lsl i in
      let keep = Int64.lognot (low_pattern i) in
      Array.iter
        (fun w ->
          acc :=
            !acc
            + Bitvec.popcount_word
                (Int64.logand (Int64.logxor w (Int64.shift_right_logical w s)) keep))
        t.words
    end
    else begin
      let step = 1 lsl (i - 6) in
      for wi = 0 to Array.length t.words - 1 do
        if wi land step = 0 then
          acc :=
            !acc
            + Bitvec.popcount_word (Int64.logxor t.words.(wi) t.words.(wi lor step))
      done
    end;
    2 * !acc

  (* Threshold counting for the distinguisher hit rates
     ([Distinguishers.Generic.advantage]): one unboxed float comparison
     per entry. *)
  let count_above (stats : float array) ~(threshold : float) =
    (* The float annotations matter: without them the body elaborates
       with polymorphic compare (the mli only constrains the signature,
       not the compiled code) — a ~15x slowdown on this loop. *)
    let n = Array.length stats in
    let hits = ref 0 in
    for i = 0 to n - 1 do
      if Array.unsafe_get stats i > threshold then incr hits
    done;
    !hits

  (* Gray-code walk over the n-cube: [first ()] for input 0, then one
     [next ~flipped ~index] per remaining input — each step flips exactly
     one coordinate, so a caller can maintain its input incrementally. *)
  let iter_gray n ~first ~next =
    check_arity n;
    first ();
    for j = 1 to (1 lsl n) - 1 do
      next ~flipped:(ctz j) ~index:(j lxor (j lsr 1))
    done

  (* Profiler shims; charges are the scanned word counts ([count_above]
     scans floats, one comparison each). *)
  let count t =
    if Prof.enabled () then
      Prof.span "kern:enum.count" (fun () ->
          Prof.add Prof.Word_ops (Array.length t.words);
          count t)
    else count t

  let count_forced_ones t ~mask =
    if Prof.enabled () then
      Prof.span "kern:enum.count_forced_ones" (fun () ->
          Prof.add Prof.Word_ops (Array.length t.words);
          count_forced_ones t ~mask)
    else count_forced_ones t ~mask

  let count_flips t ~i =
    if Prof.enabled () then
      Prof.span "kern:enum.count_flips" (fun () ->
          Prof.add Prof.Word_ops (Array.length t.words);
          count_flips t ~i)
    else count_flips t ~i

  let count_above stats ~threshold =
    if Prof.enabled () then
      Prof.span "kern:enum.count_above" (fun () ->
          Prof.add Prof.Word_ops (Array.length stats);
          count_above stats ~threshold)
    else count_above stats ~threshold
end

(* --------------------------------------------------------- WHT kernels *)

module Wht = struct
  (* 4096 floats = 32 KiB per block: comfortably L1-resident. *)
  let block = 4096

  (* Tables with at least this many entries fan their stages out across
     the Par pool. *)
  let par_threshold = 65536

  let check_pow2 n =
    if n land (n - 1) <> 0 then
      invalid_arg "Bcc_kern.Wht: length not a power of two"

  (* One contiguous run of butterfly pairs: every j in [lo, hi) is a
     lower-half index (the caller guarantees [lo, hi) stays inside one
     half), paired with j + h.  Unsafe accesses: the driver below only
     pass ranges with hi - 1 + h < length a. *)
  (* bcc-lint: allow kern/unsafe-index — driver contract: [lo, hi) is a lower-half range with hi - 1 + h < length a *)
  (* bcc-lint: noalloc *)
  let pairs_float a ~h ~lo ~hi =
    for j = lo to hi - 1 do
      let x = Array.unsafe_get a j and y = Array.unsafe_get a (j + h) in
      Array.unsafe_set a j (x +. y);
      Array.unsafe_set a (j + h) (x -. y)
    done

  (* Two fused butterfly stages (h, then 2h) in one memory pass: every j
     in [lo, hi) is a lower-quarter index, grouped with j+h, j+2h, j+3h.
     The arithmetic is the exact expressions of the two radix-2 stages —
     stage h forms s01/d01/s23/d23, stage 2h sums them in the same
     pairings — so the floats are bit-identical to running the stages
     separately; only the loads and stores are halved. *)
  (* bcc-lint: allow kern/unsafe-index — driver contract: [lo, hi) is a lower-quarter range with hi - 1 + 3h < length a *)
  (* bcc-lint: noalloc *)
  let quads_float a ~h ~lo ~hi =
    let h2 = 2 * h and h3 = 3 * h in
    for j = lo to hi - 1 do
      let x0 = Array.unsafe_get a j
      and x1 = Array.unsafe_get a (j + h)
      and x2 = Array.unsafe_get a (j + h2)
      and x3 = Array.unsafe_get a (j + h3) in
      let s01 = x0 +. x1 and d01 = x0 -. x1 in
      let s23 = x2 +. x3 and d23 = x2 -. x3 in
      Array.unsafe_set a j (s01 +. s23);
      Array.unsafe_set a (j + h) (d01 +. d23);
      Array.unsafe_set a (j + h2) (s01 -. s23);
      Array.unsafe_set a (j + h3) (d01 -. d23)
    done

  (* All stages with h < hi - lo, confined to [lo, hi): radix-4 double
     stages, with one radix-2 stage peeled at h = 1 when the stage count
     is odd so the rest pair up exactly. *)
  (* bcc-lint: allow kern/unsafe-index — caller contract: [lo, hi) is a power-of-two block inside a; every stage keeps j + offset < hi <= length a *)
  let seq_float a lo hi =
    let size = hi - lo in
    let h = ref 1 in
    if size > 1 && ctz size land 1 = 1 then begin
      let j = ref lo in
      while !j < hi do
        let x = Array.unsafe_get a !j and y = Array.unsafe_get a (!j + 1) in
        Array.unsafe_set a !j (x +. y);
        Array.unsafe_set a (!j + 1) (x -. y);
        j := !j + 2
      done;
      h := 2
    end;
    while !h < size do
      let hh = !h in
      let i = ref lo in
      while !i < hi do
        quads_float a ~h:hh ~lo:!i ~hi:(!i + hh);
        i := !i + (4 * hh)
      done;
      h := 4 * hh
    done

  (* The driver: stage [h] pairs index j with j+h; distinct pairs (and
     distinct radix-4 quads) are elementwise disjoint, so cache-blocking
     and domain-partitioning only reorder independent updates — results
     are identical to the plain doubling loop for every BCC_DOMAINS (the
     pool itself falls back to a sequential loop when nested or traced).
     Stage fusion changes no values either: the radix-4 quads compute the
     two stages' exact expressions. *)
  let blocked a =
    let n = Array.length a in
    check_pow2 n;
    if n < par_threshold then seq_float a 0 n
    else begin
      (* Phase 1: every stage with h < block stays inside one L1-sized
         block; blocks are independent and fan out across domains. *)
      let nb = n / block in
      ignore
        (Par.map_array
           (fun b ->
             seq_float a (b * block) ((b + 1) * block);
             0)
           (Array.init nb (fun b -> b)));
      (* Phase 2: the outer stages, two at a time as radix-4 double
         stages; each group's lower quarter [b*4h, b*4h + h) is cut into
         h/block block-sized chunks and the chunks fan out across
         domains.  When the outer stage count is odd, one radix-2 stage
         is peeled at h = block first so the rest pair up exactly. *)
      let h = ref block in
      if (ctz n - ctz block) land 1 = 1 then begin
        let hh = !h in
        let nblocks = n / (2 * hh) in
        ignore
          (Par.map_array
             (fun b ->
               let lo = b * 2 * hh in
               pairs_float a ~h:hh ~lo ~hi:(lo + hh);
               0)
             (Array.init nblocks (fun b -> b)));
        h := 2 * hh
      end;
      while !h < n do
        let hh = !h in
        let chunks_per_block = hh / block in
        let nblocks = n / (4 * hh) in
        ignore
          (Par.map_array
             (fun t ->
               let b = t / chunks_per_block and c = t mod chunks_per_block in
               let lo = (b * 4 * hh) + (c * block) in
               quads_float a ~h:hh ~lo ~hi:(lo + block);
               0)
             (Array.init (nblocks * chunks_per_block) (fun t -> t)));
        h := 4 * hh
      done
    end

  (* Profiler shim; a length-n transform is n*log2(n) butterflies.  The
     internal Par fan-out (len >= par_threshold) nests under this span
     via the pool's context propagation. *)
  let butterflies n = if n <= 1 then 0 else n * ctz n

  let inplace_float a =
    if Prof.enabled () then
      Prof.span "kern:wht.inplace_float" (fun () ->
          Prof.add Prof.Word_ops (butterflies (Array.length a));
          blocked a)
    else blocked a
end
