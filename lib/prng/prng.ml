(* xoshiro256++ with splitmix64 seeding.  The [seed] field remembers the
   originating seed so [split] can derive child streams deterministically
   without consuming state from the parent.

   The four state words live on a 4-element int64 Bigarray rather than
   mutable record fields: without flambda, every store of a freshly
   computed Int64 into a mutable record field allocates a box and runs
   the write barrier, so the old representation paid ~5 minor-heap
   allocations per [bits64].  Bigarray loads and stores compile to
   unboxed moves, which makes the scalar draws allocation-light and lets
   [Block] run the recurrence in a completely allocation-free loop.  The
   emitted stream is bit-for-bit unchanged — same recurrence, same
   seeding — so every artifact pinned on Prng draws survives. *)

type i64buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type intbuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [scratch] is a lazily grown per-generator staging buffer for the
   batched word draws behind [bitvec]; it is a cache, not state — [copy]
   and [split] never share or duplicate it, and it never affects the
   emitted stream. *)
type t = { st : i64buf; seed : int64; mutable scratch : i64buf }

(* Monomorphic re-declarations of the Bigarray primitives, as in
   [Bcc_kern.Buf]: without flambda the polymorphic stdlib wrappers are
   not inlined across module boundaries, and the hot loops below must
   compile to raw loads and stores. *)
external st_dim : i64buf -> int = "%caml_ba_dim_1"
external st_get : i64buf -> int -> int64 = "%caml_ba_unsafe_ref_1"
external st_set : i64buf -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
external i64_dim : i64buf -> int = "%caml_ba_dim_1"
external i64_set : i64buf -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
external int_dim : intbuf -> int = "%caml_ba_dim_1"
external int_set : intbuf -> int -> int -> unit = "%caml_ba_unsafe_set_1"
external i64_checked_get : i64buf -> int -> int64 = "%caml_ba_ref_1"

(* Validator for the unchecked state accesses: every generator built by
   this module carries exactly four state words, and the accessors below
   only touch indices 0..3. *)
let check_st st = if st_dim st <> 4 then invalid_arg "Prng: corrupted state"

let splitmix64_next state =
  state := Int64.add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Shared 0-length sentinel: generators allocate a real scratch only on
   first batched use. *)
let empty_scratch : i64buf =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0

let of_seed64 seed =
  let stref = ref seed in
  let s0 = splitmix64_next stref in
  let s1 = splitmix64_next stref in
  let s2 = splitmix64_next stref in
  let s3 = splitmix64_next stref in
  (* xoshiro must not start in the all-zero state. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  let st = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 4 in
  check_st st;
  st_set st 0 s0;
  st_set st 1 s1;
  st_set st 2 s2;
  st_set st 3 s3;
  { st; seed; scratch = empty_scratch }

let create seed = of_seed64 (Int64.of_int seed)

let split g i =
  (* Mix the parent seed with the child index through splitmix64 twice so
     that adjacent indices yield unrelated streams. *)
  let st = ref (Int64.logxor g.seed (Int64.mul (Int64.of_int i) 0x9e3779b97f4a7c15L)) in
  let mixed = splitmix64_next st in
  of_seed64 (Int64.logxor mixed (splitmix64_next st))

let copy g =
  let st = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 4 in
  Bigarray.Array1.blit g.st st;
  { st; seed = g.seed; scratch = empty_scratch }

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step on the four state words: the draw every scalar
   and batched path shares.  Inlined, its [int64]s stay unboxed, so a
   caller that consumes the result unboxed (a Bigarray store, a low-bit
   test) allocates nothing. *)
(* bcc-lint: allow kern/unsafe-index — indices 0..3 of the state words; every caller runs check_st on st first *)
let[@inline] step st =
  let s0 = st_get st 0 in
  let s1 = st_get st 1 in
  let s2 = st_get st 2 in
  let s3 = st_get st 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  st_set st 0 s0;
  st_set st 1 s1;
  st_set st 2 s2;
  st_set st 3 s3;
  result

let bits64 g =
  check_st g.st;
  step g.st

let bool g =
  check_st g.st;
  Int64.logand (step g.st) 1L = 1L

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 g) mask) in
    let r = v mod n in
    if v - r > max_int - n + 1 then draw () else r
  in
  draw ()

let float g =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int v /. 9007199254740992.0

module Block = struct
  (* Batched draws: run the xoshiro256++ recurrence straight into a
     Bigarray.  State is re-loaded from and re-stored to [g.st] every
     iteration — both compile to unboxed L1 traffic — so the loops
     allocate nothing (test_prng pins [Gc.minor_words] across a fill)
     and each draw costs a few nanoseconds instead of the scalar path's
     box-and-call overhead.  Every fill consumes the generator stream
     exactly as the equivalent sequence of scalar draws would:
     [fill_bits64] word w is the w-th [bits64], [fill_geometric] matches
     the geometric-skip decode in [Gnp.sample_fast] /
     [Sparse.sample_gnp] (same [Float.log] formula, same
     cap-then-truncate) — test_prng pins both against the scalar draws
     at awkward lengths. *)

  let check_fill name dim pos len =
    if pos < 0 || len < 0 || pos > dim - len then invalid_arg name

  (* bcc-lint: noalloc *)
  let fill_bits64 g (buf : i64buf) ~pos ~len =
    check_fill "Prng.Block.fill_bits64" (i64_dim buf) pos len;
    let st = g.st in
    check_st st;
    for i = pos to pos + len - 1 do
      i64_set buf i (step st)
    done

  (* bcc-lint: noalloc *)
  let fill_geometric g ~log1mp ~cap (buf : intbuf) ~pos ~len =
    check_fill "Prng.Block.fill_geometric" (int_dim buf) pos len;
    let st = g.st in
    check_st st;
    for i = pos to pos + len - 1 do
      let result = step st in
      (* The geometric-skip decode of [Gnp.sample_fast], verbatim: the
         same [Float.log] (not [log1p]: not bit-identical) and the same
         cap-before-truncate.  Fused here so a sampler pass needs no
         intermediate float array. *)
      let v = Int64.to_int (Int64.shift_right_logical result 11) in
      let u = float_of_int v /. 9007199254740992.0 in
      let skip = Float.log (1.0 -. u) /. log1mp in
      int_set buf i (int_of_float (Float.min skip cap))
    done

  let save g =
    check_st g.st;
    (st_get g.st 0, st_get g.st 1, st_get g.st 2, st_get g.st 3)

  let restore g (s0, s1, s2, s3) =
    check_st g.st;
    st_set g.st 0 s0;
    st_set g.st 1 s1;
    st_set g.st 2 s2;
    st_set g.st 3 s3
end

let scratch_words = 256

let bitvec g len =
  (* One [bits64] draw per 64 bits, written whole-word (LSB-first, matching
     the bit-at-a-time decode this replaces; [set_word] masks the garbage
     bits of a trailing partial word).  The words are drawn in batches by
     [Block.fill_bits64] through the per-generator scratch buffer — the
     identical stream, the identical vector, without the per-word
     generator-call overhead.  [Planted.sample_rand]'s row installs and
     [Full_prg]'s seed draws both funnel through here. *)
  let v = Bitvec.create len in
  let nwords = (len + 63) / 64 in
  if nwords > 0 && nwords < 4 then
    (* Short vectors (the simulator's per-round draws, protocol seeds):
       draw the words directly — the identical stream, without paying the
       first-use scratch allocation on generators that will only ever
       make small draws (the runner splits a fresh generator per
       processor). *)
    for i = 0 to nwords - 1 do
      Bitvec.set_word v i (bits64 g)
    done
  else if nwords > 0 then begin
    if i64_dim g.scratch = 0 then
      g.scratch <-
        Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout scratch_words;
    let scratch = g.scratch in
    let filled = ref 0 in
    while !filled < nwords do
      let l = min scratch_words (nwords - !filled) in
      Block.fill_bits64 g scratch ~pos:0 ~len:l;
      for i = 0 to l - 1 do
        Bitvec.set_word v (!filled + i) (i64_checked_get scratch i)
      done;
      filled := !filled + l
    done
  end;
  v

module Int_tbl = Hashtbl.Make (Int)

let subset g ~n ~k =
  if k < 0 || k > n then invalid_arg "Prng.subset: need 0 <= k <= n";
  (* Partial Fisher-Yates over the identity array 0..n-1, kept virtual:
     [moved] holds only the slots a swap has written (slot x holds x
     until then), so a call costs O(k) memory whatever n is.  Swap i
     takes slot j's value (j >= i) into the subset and parks slot i's
     value at slot j; no swap reads a slot below its own i again, so
     slot i itself needs no write.  The uniform words are prefetched
     through [Block.fill_bits64].  Each refill requests exactly the
     number of swaps still owed — a lower bound on the words the
     rejection loop will consume — so the buffer always drains
     completely and the word stream (and hence the resulting subset and
     the generator's end state) is identical to the scalar draw-per-swap
     path this replaces. *)
  let picked = Array.make k 0 in
  if k > 0 then begin
    let moved = Int_tbl.create k in
    let held x = Option.value (Int_tbl.find_opt moved x) ~default:x in
    let bufcap = min k 4096 in
    let words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout bufcap in
    let avail = ref 0 in
    let cursor = ref 0 in
    let mask = Int64.of_int max_int in
    for i = 0 to k - 1 do
      let bound = n - i in
      let rec draw () =
        if !cursor >= !avail then begin
          let want = min bufcap (k - i) in
          Block.fill_bits64 g words ~pos:0 ~len:want;
          avail := want;
          cursor := 0
        end;
        let w = i64_checked_get words !cursor in
        incr cursor;
        let v = Int64.to_int (Int64.logand w mask) in
        let r = v mod bound in
        if v - r > max_int - bound + 1 then draw () else r
      in
      let j = i + draw () in
      picked.(i) <- held j;
      Int_tbl.replace moved j (held i)
    done
  end;
  Array.sort Int.compare picked;
  Array.to_list picked

let shuffle g a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let bernoulli g p = float g < p

let binomial g ~n ~p =
  let c = ref 0 in
  for _ = 1 to n do
    if bernoulli g p then incr c
  done;
  !c
