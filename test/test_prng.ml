(* Tests for the splittable PRNG: determinism, independence of splits, and
   rough uniformity of the derived draws. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.bits64 a = Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check_int "different seeds differ" 0 !same

let test_split_independent_of_parent_state () =
  let parent = Prng.create 3 in
  let child_before = Prng.split parent 5 in
  ignore (Prng.bits64 parent);
  let child_after = Prng.split parent 5 in
  check_bool "split does not consume parent state" true
    (Prng.bits64 child_before = Prng.bits64 child_after)

let test_split_children_differ () =
  let parent = Prng.create 3 in
  let a = Prng.split parent 0 and b = Prng.split parent 1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check_int "children differ" 0 !same

let test_copy () =
  let a = Prng.create 11 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check_bool "copy continues identically" true (Prng.bits64 a = Prng.bits64 b)

let test_int_range () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_int_bound_one () =
  let g = Prng.create 1 in
  check_int "bound 1" 0 (Prng.int g 1)

let test_int_invalid () =
  let g = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_uniformity () =
  let g = Prng.create 2 in
  let counts = Array.make 8 0 in
  let trials = 16000 in
  for _ = 1 to trials do
    let v = Prng.int g 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int trials /. 8.0 in
      check_bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (Float.abs (float_of_int c -. expected) < 5.0 *. Float.sqrt expected))
    counts

let test_float_range () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_bitvec_length_and_balance () =
  let g = Prng.create 9 in
  let v = Prng.bitvec g 10000 in
  check_int "length" 10000 (Bitvec.length v);
  let ones = Bitvec.popcount v in
  check_bool "roughly balanced" true (ones > 4700 && ones < 5300)

let test_subset_properties () =
  let g = Prng.create 4 in
  for _ = 1 to 200 do
    let s = Prng.subset g ~n:20 ~k:7 in
    check_int "size" 7 (List.length s);
    check_int "distinct" 7 (List.length (List.sort_uniq Int.compare s));
    check_bool "sorted" true (List.sort Int.compare s = s);
    List.iter (fun x -> check_bool "in range" true (x >= 0 && x < 20)) s
  done;
  check_int "k = 0" 0 (List.length (Prng.subset g ~n:5 ~k:0));
  check_int "k = n" 5 (List.length (Prng.subset g ~n:5 ~k:5))

let test_subset_invalid () =
  let g = Prng.create 4 in
  Alcotest.check_raises "k > n" (Invalid_argument "Prng.subset: need 0 <= k <= n")
    (fun () -> ignore (Prng.subset g ~n:3 ~k:4))

let test_subset_uniform_membership () =
  (* Each element should appear with probability k/n. *)
  let g = Prng.create 6 in
  let n = 10 and k = 3 and trials = 6000 in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    List.iter (fun i -> counts.(i) <- counts.(i) + 1) (Prng.subset g ~n ~k)
  done;
  let expected = float_of_int (trials * k) /. float_of_int n in
  Array.iter
    (fun c ->
      check_bool "membership near k/n" true
        (Float.abs (float_of_int c -. expected) < 6.0 *. Float.sqrt expected))
    counts

let test_permutation () =
  let g = Prng.create 8 in
  let p = Prng.permutation g 30 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 30 (fun i -> i)) sorted

let test_shuffle_preserves_multiset () =
  let g = Prng.create 8 in
  let a = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let b = Array.copy a in
  Prng.shuffle g b;
  Array.sort Int.compare a;
  Array.sort Int.compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_bernoulli_bias () =
  let g = Prng.create 10 in
  let hits = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  check_bool "close to 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_binomial_mean () =
  let g = Prng.create 12 in
  let total = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    total := !total + Prng.binomial g ~n:40 ~p:0.5
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check_bool "mean near 20" true (Float.abs (mean -. 20.0) < 0.5)

(* ------------------------------------------------------- batched draws *)

(* The Prng.Block contract: a fill of [len] consumes the generator stream
   exactly as [len] scalar draws would — same words, same end state.  The
   lengths cross every boundary the unrolled fill loop cares about (block
   edges at 64, page-ish edges at 4096) and each length is checked at a
   nonzero [pos] too. *)
let fill_lengths = [ 1; 63; 64; 65; 4095; 4096; 4097 ]

let test_fill_bits64_matches_scalar () =
  List.iter
    (fun len ->
      List.iter
        (fun pos ->
          let buf =
            Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (pos + len)
          in
          Bigarray.Array1.fill buf 0L;
          let gb = Prng.create 91 and gs = Prng.create 91 in
          Prng.Block.fill_bits64 gb buf ~pos ~len;
          let ok = ref true in
          for i = 0 to len - 1 do
            if not (Int64.equal buf.{pos + i} (Prng.bits64 gs)) then ok := false
          done;
          check_bool (Printf.sprintf "words len=%d pos=%d" len pos) true !ok;
          check_bool
            (Printf.sprintf "end state len=%d pos=%d" len pos)
            true
            (Int64.equal (Prng.bits64 gb) (Prng.bits64 gs)))
        [ 0; 3 ])
    fill_lengths

let test_fill_geometric_matches_scalar_decode () =
  let p = 0.003 in
  let log1mp = Float.log (1.0 -. p) in
  let cap = float_of_int (1 lsl 20) in
  List.iter
    (fun len ->
      let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
      let gb = Prng.create 93 and gs = Prng.create 93 in
      Prng.Block.fill_geometric gb ~log1mp ~cap buf ~pos:0 ~len;
      let ok = ref true in
      for i = 0 to len - 1 do
        let u = Prng.float gs in
        let skip = int_of_float (Float.min (Float.log (1.0 -. u) /. log1mp) cap) in
        if buf.{i} <> skip then ok := false
      done;
      check_bool (Printf.sprintf "skips len=%d" len) true !ok;
      check_bool
        (Printf.sprintf "end state len=%d" len)
        true
        (Int64.equal (Prng.bits64 gb) (Prng.bits64 gs)))
    fill_lengths

let test_fill_invalid () =
  let g = Prng.create 1 in
  let buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 8 in
  Alcotest.check_raises "negative pos"
    (Invalid_argument "Prng.Block.fill_bits64") (fun () ->
      Prng.Block.fill_bits64 g buf ~pos:(-1) ~len:1);
  Alcotest.check_raises "negative len"
    (Invalid_argument "Prng.Block.fill_bits64") (fun () ->
      Prng.Block.fill_bits64 g buf ~pos:0 ~len:(-1));
  Alcotest.check_raises "overrun" (Invalid_argument "Prng.Block.fill_bits64")
    (fun () -> Prng.Block.fill_bits64 g buf ~pos:4 ~len:5)

let test_save_restore_rewinds () =
  let g = Prng.create 94 in
  ignore (Prng.bits64 g);
  let snap = Prng.Block.save g in
  let a = Array.init 16 (fun _ -> Prng.bits64 g) in
  Prng.Block.restore g snap;
  let b = Array.init 16 (fun _ -> Prng.bits64 g) in
  check_bool "restore replays the stream" true (a = b);
  (* The seed (and hence split) is unaffected by restore. *)
  Prng.Block.restore g snap;
  let c1 = Prng.bits64 (Prng.split g 5) in
  ignore (Prng.bits64 g);
  let c2 = Prng.bits64 (Prng.split g 5) in
  check_bool "split unaffected" true (Int64.equal c1 c2)

let test_fill_no_alloc () =
  (* The fill loops are (* bcc-lint: noalloc *): unboxed Bigarray loads
     and stores only.  Gc.minor_words boxes its float result, so allow a
     small constant slack over the 10 calls of each fill. *)
  let len = 4096 in
  let i64 = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  let ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  let g = Prng.create 95 in
  let log1mp = Float.log (1.0 -. 0.01) in
  let cap = float_of_int (1 lsl 20) in
  (* Warm up (first calls may fault pages / allocate the scratch). *)
  Prng.Block.fill_bits64 g i64 ~pos:0 ~len;
  Prng.Block.fill_geometric g ~log1mp ~cap ints ~pos:0 ~len;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    Prng.Block.fill_bits64 g i64 ~pos:0 ~len;
    Prng.Block.fill_geometric g ~log1mp ~cap ints ~pos:0 ~len
  done;
  let delta = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "fills allocate nothing (delta %.0f words)" delta)
    true (delta < 256.0)

let test_subset_uses_scalar_stream () =
  (* subset's batched candidate prefetch must consume the stream exactly
     as the rejection loop's scalar draws would: same subsets from equal
     seeds regardless of internal batching, and stable across calls. *)
  let a = Prng.create 96 and b = Prng.create 96 in
  for _ = 1 to 50 do
    let sa = Prng.subset a ~n:1000 ~k:17 in
    let sb = Prng.subset b ~n:1000 ~k:17 in
    check_bool "same subset" true (sa = sb)
  done;
  check_bool "same end state" true (Int64.equal (Prng.bits64 a) (Prng.bits64 b))

(* [Prng.subset] as it was before it kept only the swapped slots: the
   partial Fisher-Yates over an n-entry index array, with the same
   prefetch of exactly the swaps still owed.  The reference the O(k)
   version must match: same words drawn, same sorted subset. *)
let reference_subset g ~n ~k =
  let a = Array.init n (fun i -> i) in
  if k > 0 then begin
    let bufcap = min k 4096 in
    let words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout bufcap in
    let avail = ref 0 and cursor = ref 0 in
    let mask = Int64.of_int max_int in
    for i = 0 to k - 1 do
      let bound = n - i in
      let rec draw () =
        if !cursor >= !avail then begin
          let want = min bufcap (k - i) in
          Prng.Block.fill_bits64 g words ~pos:0 ~len:want;
          avail := want;
          cursor := 0
        end;
        let w = Bigarray.Array1.get words !cursor in
        incr cursor;
        let v = Int64.to_int (Int64.logand w mask) in
        let r = v mod bound in
        if v - r > max_int - bound + 1 then draw () else r
      in
      let j = i + draw () in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
  end;
  List.sort Int.compare (Array.to_list (Array.sub a 0 k))

(* Equal subsets and equal generator end states (the next two words) at
   k = 0, 1 and n, across the 4096-word refill seam, and at random
   (n, k, seed). *)
let test_subset_vs_reference () =
  let same ~seed ~n ~k =
    let a = Prng.create seed and b = Prng.create seed in
    let name = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
    check_bool (name ^ ": same subset") true
      (Prng.subset a ~n ~k = reference_subset b ~n ~k);
    check_bool (name ^ ": same end state") true
      (List.init 2 (fun _ -> Prng.bits64 a) = List.init 2 (fun _ -> Prng.bits64 b))
  in
  List.iter
    (fun (n, k) -> same ~seed:11 ~n ~k)
    [
      (0, 0); (1, 0); (1, 1); (2, 1); (2, 2); (64, 0); (64, 1); (64, 64);
      (200_000, 1); (4097, 4097); (10_000, 10_000); (200_000, 338);
    ];
  let g = Prng.create 2026 in
  for _ = 1 to 300 do
    let n = 1 + Prng.int g 5000 in
    same ~seed:(Prng.int g 1_000_000) ~n ~k:(Prng.int g (n + 1))
  done

(* Known-answer vectors: fixed-seed outputs recorded once and pinned, so
   a change to the generator, its seeding, [split] or a fill loop fails
   here even though every in-run comparison above (block vs scalar,
   copy vs original) would move with it. *)
let hex_words ws = List.map (Printf.sprintf "%016Lx") ws
let first_words g = List.init 4 (fun _ -> Prng.bits64 g)

let test_known_answer_bits64 () =
  let check_words label want g =
    Alcotest.(check (list string)) label want (hex_words (first_words g))
  in
  let root = Prng.create 42 in
  check_words "create 42"
    [ "d0764d4f4476689f"; "519e4174576f3791"; "fbe07cfb0c24ed8c"; "b37d9f600cd835b8" ]
    (Prng.copy root);
  check_words "split 42 0"
    [ "c21dc9816894d6d4"; "fad9d65bfbe38a94"; "f846905bd5ba994a"; "987980f881512f3e" ]
    (Prng.split root 0);
  check_words "split 42 1"
    [ "ecb7681aa0e5f4e9"; "ade6a89aaaf76ee4"; "f212dd5a4dedbc9d"; "2766406d804c1e49" ]
    (Prng.split root 1)

let test_known_answer_fills () =
  let len = 6 in
  let i64 = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  Prng.Block.fill_bits64 (Prng.create 7) i64 ~pos:0 ~len;
  Alcotest.(check (list string))
    "fill_bits64 seed 7"
    [ "0e2c1a002aae913d"; "2c0fc8ddfa4e9e14"; "b7b311b3b0d45872";
      "6d5d9f6a6318013c"; "f6b263f2f5790376"; "77385b627c22c489" ]
    (hex_words (List.init len (Bigarray.Array1.get i64)));
  let ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Prng.Block.fill_geometric (Prng.create 7)
    ~log1mp:(Float.log (1.0 -. 0.01))
    ~cap:(float_of_int (1 lsl 20))
    ints ~pos:0 ~len;
  Alcotest.(check (list int))
    "fill_geometric seed 7 p=0.01" [ 5; 18; 125; 55; 329; 62 ]
    (List.init len (Bigarray.Array1.get ints))

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int always within bound" ~count:500
    QCheck.(pair (int_range 1 1000) small_int)
    (fun (bound, seed) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_bitvec_deterministic =
  QCheck.Test.make ~name:"bitvec deterministic per seed" ~count:100
    QCheck.(pair (int_range 0 300) small_int)
    (fun (len, seed) ->
      let a = Prng.bitvec (Prng.create seed) len in
      let b = Prng.bitvec (Prng.create seed) len in
      Bitvec.equal a b)

let () =
  Alcotest.run "prng"
    [
      ( "unit",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split is pure" `Quick test_split_independent_of_parent_state;
          Alcotest.test_case "split children differ" `Quick test_split_children_differ;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int bound 1" `Quick test_int_bound_one;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bitvec balance" `Quick test_bitvec_length_and_balance;
          Alcotest.test_case "subset properties" `Quick test_subset_properties;
          Alcotest.test_case "subset invalid" `Quick test_subset_invalid;
          Alcotest.test_case "subset membership" `Quick test_subset_uniform_membership;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "shuffle multiset" `Quick test_shuffle_preserves_multiset;
          Alcotest.test_case "bernoulli bias" `Quick test_bernoulli_bias;
          Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
        ] );
      ( "block",
        [
          Alcotest.test_case "fill_bits64 = scalar" `Quick
            test_fill_bits64_matches_scalar;
          Alcotest.test_case "fill_geometric = scalar decode" `Quick
            test_fill_geometric_matches_scalar_decode;
          Alcotest.test_case "fill invalid args" `Quick test_fill_invalid;
          Alcotest.test_case "save/restore rewinds" `Quick
            test_save_restore_rewinds;
          Alcotest.test_case "fills allocate nothing" `Quick test_fill_no_alloc;
          Alcotest.test_case "subset stream identity" `Quick
            test_subset_uses_scalar_stream;
          Alcotest.test_case "subset = index-array reference" `Quick
            test_subset_vs_reference;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "bits64 and split children" `Quick
            test_known_answer_bits64;
          Alcotest.test_case "block fills" `Quick test_known_answer_fills;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_int_in_bounds; prop_bitvec_deterministic ] );
    ]
