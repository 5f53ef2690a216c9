type t = { len : int; words : int64 array }

let bits_per_word = 64

let word_count len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (word_count len) 0L }

let length v = v.len

let check_index v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of bounds"

let get v i =
  check_index v i;
  Int64.logand (Int64.shift_right_logical v.words.(i / 64) (i mod 64)) 1L = 1L

let set v i b =
  check_index v i;
  let w = i / 64 and s = i mod 64 in
  if b then v.words.(w) <- Int64.logor v.words.(w) (Int64.shift_left 1L s)
  else v.words.(w) <- Int64.logand v.words.(w) (Int64.lognot (Int64.shift_left 1L s))

(* bcc-lint: allow kern/unsafe-index — exported unsafe primitive: the .mli contract makes the caller guarantee 0 <= i < len (Digraph.unsafe_add_edge's inner loop) *)
let unsafe_set_bit v i =
  let w = i lsr 6 and s = i land 63 in
  Array.unsafe_set v.words w
    (Int64.logor (Array.unsafe_get v.words w) (Int64.shift_left 1L s))

let flip v i =
  check_index v i;
  let w = i / 64 and s = i mod 64 in
  v.words.(w) <- Int64.logxor v.words.(w) (Int64.shift_left 1L s)

let init len f =
  let v = create len in
  for i = 0 to len - 1 do
    if f i then set v i true
  done;
  v

let copy v = { len = v.len; words = Array.copy v.words }

let of_bool_array a = init (Array.length a) (Array.get a)

let to_bool_array v = Array.init v.len (get v)

let of_int ~width x =
  if width < 0 || width > 62 then invalid_arg "Bitvec.of_int: width out of range";
  init width (fun i -> (x lsr i) land 1 = 1)

let to_int v =
  if v.len > 62 then invalid_arg "Bitvec.to_int: vector too long";
  let r = ref 0 in
  for i = v.len - 1 downto 0 do
    r := (!r lsl 1) lor (if get v i then 1 else 0)
  done;
  !r

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitvec.of_string: expected '0' or '1'")

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

(* Clear any garbage bits above [len] in the last word; bulk operations such
   as [lognot] can set them and popcount/equality must not see them. *)
let normalize v =
  let r = v.len mod 64 in
  if r <> 0 && Array.length v.words > 0 then begin
    let last = Array.length v.words - 1 in
    let mask = Int64.sub (Int64.shift_left 1L r) 1L in
    v.words.(last) <- Int64.logand v.words.(last) mask
  end

let ones len =
  let v = { len; words = Array.make (word_count len) (-1L) } in
  normalize v;
  v

let check_same_len a b op =
  if a.len <> b.len then invalid_arg ("Bitvec." ^ op ^ ": length mismatch")

let map2 op a b name =
  check_same_len a b name;
  let words = Array.init (Array.length a.words) (fun i -> op a.words.(i) b.words.(i)) in
  let v = { len = a.len; words } in
  normalize v;
  v

let xor a b = map2 Int64.logxor a b "xor"
let logand a b = map2 Int64.logand a b "logand"
let logor a b = map2 Int64.logor a b "logor"

let xor_inplace dst src =
  check_same_len dst src "xor_inplace";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- Int64.logxor dst.words.(i) src.words.(i)
  done

(* No-alloc combinators for the packed graph kernels (Bcc_kern.Graph):
   everything below writes into caller-owned scratch or returns an int, so
   the triangle/clique inner loops allocate nothing.  Operands are
   normalized ([len]-excess bits zero), so and/andnot results are too. *)

let assign dst src =
  check_same_len dst src "assign";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let logand_into ~dst a b =
  check_same_len dst a "logand_into";
  check_same_len a b "logand_into";
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Int64.logand (Array.unsafe_get a.words i) (Array.unsafe_get b.words i))
  done

let logandnot_into ~dst a b =
  check_same_len dst a "logandnot_into";
  check_same_len a b "logandnot_into";
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Int64.logand (Array.unsafe_get a.words i)
         (Int64.lognot (Array.unsafe_get b.words i)))
  done

let lognot v =
  let words = Array.map Int64.lognot v.words in
  let r = { len = v.len; words } in
  normalize r;
  r

(* 16-bit popcount table.  An immutable string (one count per character)
   so it can be read from any domain without synchronisation.  Built at
   start-up from pop(i) = pop(i / 2) + (i land 1), one load and store per
   entry; a bit loop per entry took 1.6-2.1 ms of a ~5.5 ms process
   start-up on a 2-vCPU Xeon VM. *)
let popcount16 =
  let b = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b (i lsr 1)) + (i land 1)))
  done;
  Bytes.to_string b

let popcount_int x =
  if x < 0 then invalid_arg "Bitvec.popcount_int: negative";
  Char.code (String.unsafe_get popcount16 (x land 0xffff))
  + Char.code (String.unsafe_get popcount16 ((x lsr 16) land 0xffff))
  + Char.code (String.unsafe_get popcount16 ((x lsr 32) land 0xffff))
  + Char.code (String.unsafe_get popcount16 (x lsr 48))

(* bcc-lint: allow kern/unsafe-index — every index is masked (land 0xffff) or shifted (lsr 16) below 65536, the popcount16 table length *)
let popcount_word w =
  (* Four table lookups; the two halves are extracted separately because
     [Int64.to_int] would drop bit 63. *)
  let lo = Int64.to_int (Int64.logand w 0xffffffffL) in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  Char.code (String.unsafe_get popcount16 (lo land 0xffff))
  + Char.code (String.unsafe_get popcount16 (lo lsr 16))
  + Char.code (String.unsafe_get popcount16 (hi land 0xffff))
  + Char.code (String.unsafe_get popcount16 (hi lsr 16))

let popcount v = Array.fold_left (fun acc w -> acc + popcount_word w) 0 v.words

let popcount_and2 a b =
  check_same_len a b "popcount_and2";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc :=
      !acc
      + popcount_word
          (Int64.logand (Array.unsafe_get a.words i) (Array.unsafe_get b.words i))
  done;
  !acc

let popcount_and3 a b c =
  check_same_len a b "popcount_and3";
  check_same_len b c "popcount_and3";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc :=
      !acc
      + popcount_word
          (Int64.logand
             (Int64.logand (Array.unsafe_get a.words i) (Array.unsafe_get b.words i))
             (Array.unsafe_get c.words i))
  done;
  !acc

let popcount_and2_above a b ~above =
  check_same_len a b "popcount_and2_above";
  (* Count set bits of [a land b] at indices strictly greater than
     [above]: mask the word containing [above + 1], take later words
     whole.  Replaces the per-iteration [init n (fun u -> u > v)] suffix
     mask of the triangle/K4 counters. *)
  let lo = above + 1 in
  if lo >= a.len then 0
  else begin
    let wi = lo lsr 6 and sh = lo land 63 in
    let nwords = Array.length a.words in
    let acc =
      ref
        (popcount_word
           (Int64.logand
              (Int64.shift_left (-1L) sh)
              (Int64.logand (Array.unsafe_get a.words wi)
                 (Array.unsafe_get b.words wi))))
    in
    for i = wi + 1 to nwords - 1 do
      acc :=
        !acc
        + popcount_word
            (Int64.logand (Array.unsafe_get a.words i)
               (Array.unsafe_get b.words i))
    done;
    !acc
  end

let is_zero v = Array.for_all (fun w -> w = 0L) v.words

let first_set v =
  let nwords = Array.length v.words in
  let rec go wi =
    if wi >= nwords then -1
    else
      let w = v.words.(wi) in
      if w = 0L then go (wi + 1)
      else
        (* Index of the lowest set bit: popcount of (low - 1). *)
        let low = Int64.logand w (Int64.neg w) in
        (wi * 64) + popcount_word (Int64.sub low 1L)
  in
  go 0

(* Raw word access for the packed kernels (Bcc_kern); the words are
   little-endian in bit index, garbage bits above [len] always zero. *)
let word_length v = Array.length v.words

let get_word v i = v.words.(i)

(* bcc-lint: allow kern/unsafe-index — exported unsafe primitive: callers (Bcc_kern pack loops) bound i by word_length *)
let unsafe_get_word v i = Array.unsafe_get v.words i

let set_word v i w =
  v.words.(i) <- w;
  if i = Array.length v.words - 1 then normalize v

let dot a b =
  check_same_len a b "dot";
  let parity = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    parity := !parity lxor (popcount_word (Int64.logand a.words.(i) b.words.(i)) land 1)
  done;
  !parity = 1

let equal a b = a.len = b.len && Array.for_all2 Int64.equal a.words b.words

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c
  else begin
    (* Lexicographic on the word array; lengths are equal here, so this
       is a total order without polymorphic comparison. *)
    let rec go i =
      if i >= Array.length a.words then 0
      else
        let c = Int64.compare a.words.(i) b.words.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let hash v =
  (* FNV-1a-style fold over the words, splitting each int64 into two
     halves that fit OCaml's int; explicit so the hash never depends on
     polymorphic structural hashing. *)
  let fnv_prime = 0x01000193 in
  let mix h x = (h lxor x) * fnv_prime land max_int in
  let h = ref (mix 0x811c9dc5 v.len) in
  Array.iter
    (fun w ->
      h := mix !h (Int64.to_int (Int64.logand w 0xffffffffL));
      h := mix !h (Int64.to_int (Int64.shift_right_logical w 32)))
    v.words;
  !h

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || dst_pos < 0
     || src_pos + len > src.len || dst_pos + len > dst.len
  then invalid_arg "Bitvec.blit: range out of bounds";
  for i = 0 to len - 1 do
    set dst (dst_pos + i) (get src (src_pos + i))
  done

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Bitvec.sub";
  let r = create len in
  blit ~src:v ~src_pos:pos ~dst:r ~dst_pos:0 ~len;
  r

let concat a b =
  let r = create (a.len + b.len) in
  blit ~src:a ~src_pos:0 ~dst:r ~dst_pos:0 ~len:a.len;
  blit ~src:b ~src_pos:0 ~dst:r ~dst_pos:a.len ~len:b.len;
  r

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (get v i)
  done

let fold_left f acc v =
  let acc = ref acc in
  iteri (fun _ b -> acc := f !acc b) v;
  !acc

let iter_set f v =
  for wi = 0 to Array.length v.words - 1 do
    let w = ref v.words.(wi) in
    while !w <> 0L do
      (* Extract lowest set bit. *)
      let low = Int64.logand !w (Int64.neg !w) in
      let bit = popcount_word (Int64.sub low 1L) in
      f ((wi * 64) + bit);
      w := Int64.logxor !w low
    done
  done

let indices_set v =
  let acc = ref [] in
  iter_set (fun i -> acc := i :: !acc) v;
  List.rev !acc

let map f v = init v.len (fun i -> f (get v i))

let set_indices v is = List.iter (fun i -> set v i true) is

let restrict_ones v is = List.for_all (get v) is

let pp fmt v = Format.pp_print_string fmt (to_string v)
