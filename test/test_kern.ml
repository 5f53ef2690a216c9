(* Property tests for the packed bit-sliced kernels (Bcc_kern): every
   kernel against its naive oracle (test/oracle), plus the determinism
   contract for the domain-parallel WHT path and the experiment
   artifacts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Runs [f] with the pool pinned to [domains], restoring the previous
   size afterwards even if [f] raises. *)
let with_domains domains f =
  let old = Par.domain_count () in
  Par.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Par.set_domain_count old) f

(* ------------------------------------------------------------ popcount *)

let test_popcount_lut_vs_swar () =
  let g = Prng.create 11 in
  for _ = 1 to 2000 do
    let w = Prng.bits64 g in
    check_int "word" (Oracle.popcount_swar w) (Bitvec.popcount_word w)
  done;
  List.iter
    (fun w -> check_int "edge" (Oracle.popcount_swar w) (Bitvec.popcount_word w))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000000000000001L ]

let test_popcount_int () =
  let g = Prng.create 12 in
  for _ = 1 to 2000 do
    let v = Prng.int g max_int in
    let rec slow v acc = if v = 0 then acc else slow (v lsr 1) (acc + (v land 1)) in
    check_int "int" (slow v 0) (Bitvec.popcount_int v)
  done;
  check_int "zero" 0 (Bitvec.popcount_int 0);
  check_int "max_int" 62 (Bitvec.popcount_int max_int)

let test_first_set () =
  let v = Bitvec.create 200 in
  check_int "empty" (-1) (Bitvec.first_set v);
  Bitvec.set v 137 true;
  check_int "high" 137 (Bitvec.first_set v);
  Bitvec.set v 3 true;
  check_int "low wins" 3 (Bitvec.first_set v)

(* ----------------------------------------------------------- transpose *)

let random_matrix g ~rows ~cols = Gf2_matrix.random g ~rows ~cols

let test_transpose64_involution () =
  let g = Prng.create 21 in
  let blk = Array.init 64 (fun _ -> Prng.bits64 g) in
  let orig = Array.copy blk in
  Bcc_kern.Gf2.transpose64 blk;
  check_bool "changed" true (blk <> orig);
  Bcc_kern.Gf2.transpose64 blk;
  check_bool "involution" true (blk = orig)

let test_transpose_vs_ref () =
  let g = Prng.create 22 in
  List.iter
    (fun (rows, cols) ->
      let m = random_matrix g ~rows ~cols in
      let t = Gf2_matrix.transpose m in
      let expect =
        Oracle.transpose_rows (Array.init rows (Gf2_matrix.row m)) ~cols
      in
      check_bool
        (Printf.sprintf "transpose %dx%d" rows cols)
        true
        (Gf2_matrix.equal t (Gf2_matrix.of_rows expect)))
    [ (1, 1); (7, 3); (64, 64); (70, 130); (130, 65); (128, 128) ]

(* ---------------------------------------------------------------- rank *)

let ranks_agree name m =
  let rows = Array.init (Gf2_matrix.rows m) (Gf2_matrix.row m) in
  let bools =
    Array.init (Gf2_matrix.rows m) (fun i ->
        Array.init (Gf2_matrix.cols m) (fun j -> Gf2_matrix.get m i j))
  in
  let kern = Gf2_matrix.rank m in
  check_int (name ^ " vs gauss-jordan") (Oracle.rank_rows rows) kern;
  check_int (name ^ " vs scalar") (Oracle.rank_bools bools) kern;
  kern

let test_rank_random () =
  let g = Prng.create 31 in
  List.iter
    (fun (rows, cols) ->
      ignore (ranks_agree (Printf.sprintf "random %dx%d" rows cols)
                (random_matrix g ~rows ~cols)))
    [ (1, 1); (5, 9); (48, 48); (64, 64); (100, 70); (70, 130); (129, 129);
      (33, 33); (100, 100) ]

let test_rank_identity () =
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "identity %d" n)
        n
        (ranks_agree "identity" (Gf2_matrix.identity n)))
    [ 1; 17; 64; 100 ]

let test_rank_deficient () =
  let g = Prng.create 32 in
  List.iter
    (fun (n, r) ->
      let m = Gf2_matrix.random_of_rank_at_most g ~n ~r in
      let rank = ranks_agree (Printf.sprintf "deficient n=%d r=%d" n r) m in
      check_bool "at most r" true (rank <= r))
    [ (20, 3); (64, 10); (100, 64); (80, 0) ]

(* ------------------------------------------------------------ multiply *)

let test_mul_vs_ref () =
  let g = Prng.create 41 in
  List.iter
    (fun (r, k, c) ->
      let a = random_matrix g ~rows:r ~cols:k in
      let b = random_matrix g ~rows:k ~cols:c in
      let expect =
        Oracle.mul_rows
          (Array.init r (Gf2_matrix.row a))
          (Array.init k (Gf2_matrix.row b))
          ~cols:c
      in
      check_bool
        (Printf.sprintf "mul %dx%d.%dx%d" r k k c)
        true
        (Gf2_matrix.equal (Gf2_matrix.mul a b) (Gf2_matrix.of_rows expect)))
    [ (1, 1, 1); (3, 5, 7); (64, 64, 64); (70, 130, 65); (130, 70, 128); (256, 256, 256) ]

let test_mul_identity () =
  let g = Prng.create 42 in
  let m = random_matrix g ~rows:70 ~cols:70 in
  check_bool "I*m" true (Gf2_matrix.equal m (Gf2_matrix.mul (Gf2_matrix.identity 70) m));
  check_bool "m*I" true (Gf2_matrix.equal m (Gf2_matrix.mul m (Gf2_matrix.identity 70)))

let test_expand_rows_matches_expand () =
  let g = Prng.create 43 in
  let params = { Full_prg.n = 20; k = 24; m = 60 } in
  let secret = Full_prg.sample_secret g params in
  let seeds = Array.init 20 (fun _ -> Prng.bitvec g params.Full_prg.k) in
  let batched = Full_prg.expand_rows secret seeds in
  check_int "count" 20 (Array.length batched);
  Array.iteri
    (fun i x ->
      check_bool
        (Printf.sprintf "row %d" i)
        true
        (Bitvec.equal batched.(i) (Full_prg.expand secret x)))
    seeds;
  check_int "empty" 0 (Array.length (Full_prg.expand_rows secret [||]))

(* --------------------------------------------------------------- enum *)

let test_enum_counts_vs_per_input () =
  let g = Prng.create 51 in
  List.iter
    (fun n ->
      let f = Boolfun.random g n in
      let t = Boolfun.packed_table f in
      let eval = Boolfun.eval_int f in
      check_int
        (Printf.sprintf "count n=%d" n)
        (Oracle.count_true ~n eval)
        (Bcc_kern.Enum.count t);
      for x = 0 to (1 lsl n) - 1 do
        check_bool "get" (eval x) (Bcc_kern.Enum.get t x)
      done;
      for i = 0 to n - 1 do
        check_int
          (Printf.sprintf "flips n=%d i=%d" n i)
          (Oracle.count_flips ~n ~i eval)
          (Bcc_kern.Enum.count_flips t ~i)
      done;
      List.iter
        (fun mask ->
          let mask = mask land ((1 lsl n) - 1) in
          check_int
            (Printf.sprintf "forced n=%d mask=%d" n mask)
            (Oracle.count_forced_ones ~n ~mask eval)
            (Bcc_kern.Enum.count_forced_ones t ~mask))
        [ 0; 1; 0x21; 0x41; 0x181; 0x2a5; (1 lsl n) - 1 ])
    [ 1; 3; 6; 7; 9; 11; 10 ]

let test_iter_gray_covers_cube () =
  List.iter
    (fun n ->
      let seen = Array.make (1 lsl n) 0 in
      let x = ref 0 in
      Bcc_kern.Enum.iter_gray n
        ~first:(fun () -> seen.(0) <- seen.(0) + 1)
        ~next:(fun ~flipped ~index ->
          x := !x lxor (1 lsl flipped);
          check_int "index tracks flips" index !x;
          seen.(index) <- seen.(index) + 1);
      Array.iteri (fun i c -> check_int (Printf.sprintf "visit %d" i) 1 c) seen)
    [ 0; 1; 2; 5; 10 ]

let test_count_above_strict () =
  let g = Prng.create 52 in
  let stats = Array.init 1000 (fun _ -> Prng.float g) in
  List.iter
    (fun threshold ->
      check_int "vs scalar"
        (Oracle.count_above stats ~threshold)
        (Bcc_kern.Enum.count_above stats ~threshold))
    [ -1.0; 0.0; 0.25; 0.5; 0.999; 1.0 ];
  (* Strictly above: a value equal to the threshold is not a hit. *)
  check_int "strict" 0 (Bcc_kern.Enum.count_above [| 0.5; 0.5 |] ~threshold:0.5);
  check_int "empty" 0 (Bcc_kern.Enum.count_above [||] ~threshold:0.0)

(* ----------------------------------------------------------------- wht *)

let random_table g len = Array.init len (fun _ -> if Prng.bool g then 1.0 else 0.0)

let test_wht_blocked_vs_naive () =
  let g = Prng.create 61 in
  for n = 0 to 10 do
    let a = random_table g (1 lsl n) in
    let blocked = Array.copy a in
    Fourier.wht_inplace blocked;
    let butterfly = Array.copy a in
    Oracle.wht_butterfly butterfly;
    check_bool (Printf.sprintf "vs butterfly n=%d" n) true (blocked = butterfly);
    check_bool (Printf.sprintf "vs direct n=%d" n) true (blocked = Oracle.wht a)
  done

let test_wht_parallel_identical () =
  (* 2^17 crosses par_threshold and 2^16 sits on it: the butterfly stages
     fan out across the pool; the result must be byte-identical at 1 and 4
     domains, and equal to the plain butterfly. *)
  List.iter
    (fun logn ->
      let base = random_table (Prng.create 63) (1 lsl logn) in
      let transform domains =
        with_domains domains (fun () ->
            let a = Array.copy base in
            Fourier.wht_inplace a;
            a)
      in
      let seq = transform 1 in
      check_bool (Printf.sprintf "1 vs 4 domains 2^%d" logn) true (seq = transform 4);
      let butterfly = Array.copy base in
      Oracle.wht_butterfly butterfly;
      check_bool (Printf.sprintf "vs butterfly 2^%d" logn) true (seq = butterfly))
    [ 17; 16 ]

let test_wht_float_no_alloc () =
  (* Below par_threshold the butterflies are in-place loops on an unboxed
     float array: no minor-heap words.  Gc.minor_words boxes its float
     result, so allow a small constant slack over the 10 calls. *)
  let a = random_table (Prng.create 73) (1 lsl 12) in
  Bcc_kern.Wht.inplace_float a;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    Bcc_kern.Wht.inplace_float a
  done;
  let delta = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "inplace_float allocates nothing (delta %.0f words)" delta)
    true (delta < 256.0)

let test_fourier_transform_exact () =
  (* The packed-table load, blocked WHT and in-place scaling must
     reproduce the plain float butterfly bit-for-bit. *)
  let g = Prng.create 64 in
  List.iter
    (fun n ->
      let f = Boolfun.random g n in
      let old_path =
        let a = Fourier.real_table f in
        Oracle.wht_butterfly a;
        let scale = 1.0 /. float_of_int (Array.length a) in
        Array.map (fun v -> v *. scale) a
      in
      check_bool (Printf.sprintf "n=%d" n) true (Fourier.transform f = old_path))
    [ 0; 1; 4; 8; 12 ]

(* ------------------------------------------------------------------ buf *)

(* Buf accessors and copy against plain-array oracles, at the
   word-boundary sizes where an off-by-one in flat-buffer math would
   bite. *)
let buf_sizes = [ 1; 63; 64; 65; 127; 128 ]

let test_buf_i64_vs_oracle () =
  let g = Prng.create 71 in
  let module Buf = Bcc_kern.Buf in
  let to_array b = Array.init (Buf.i64_length b) (Buf.i64_get b) in
  List.iter
    (fun n ->
      let b = Buf.i64_create n in
      check_int (Printf.sprintf "length %d" n) n (Buf.i64_length b);
      check_bool "create zeroed" true (Array.for_all (Int64.equal 0L) (to_array b));
      let src = Array.init n (fun _ -> Prng.bits64 g) in
      Array.iteri (fun i v -> Buf.i64_set b i v) src;
      Array.iteri
        (fun i v ->
          check_bool (Printf.sprintf "get %d/%d" i n) true
            (Int64.equal (Buf.i64_get b i) v))
        src;
      let c = Buf.i64_copy b in
      let rev = Array.init n (fun i -> src.(n - 1 - i)) in
      Array.iteri (fun i v -> Buf.i64_set b i v) rev;
      check_bool "after set" true (to_array b = rev);
      check_bool "copy unaffected by set" true (to_array c = src))
    buf_sizes

(* [Buf.int_create_uninit] advises buffers of 32 MB or more onto
   transparent huge pages.  The advice must change nothing a caller can
   see: just below, at and above that length, and at length 0, the
   buffer has the length asked for and every slot round-trips. *)
let test_buf_uninit_hugepage_threshold () =
  let module Buf = Bcc_kern.Buf in
  let threshold = (32 lsl 20) / Bigarray.kind_size_in_bytes Bigarray.int in
  List.iter
    (fun n ->
      let b = Buf.int_create_uninit n in
      check_int (Printf.sprintf "length %d" n) n (Buf.int_length b);
      let v i = (i * 7919) lxor n in
      for i = 0 to n - 1 do
        Buf.int_set b i (v i)
      done;
      let bad = ref 0 in
      for i = 0 to n - 1 do
        if Buf.int_get b i <> v i then incr bad
      done;
      check_int (Printf.sprintf "slots that do not round-trip at %d" n) 0 !bad)
    [ 0; threshold - 1; threshold; threshold + 4097 ]

(* ------------------------------------------------------------ mul_wide *)

let test_mul_wide_vs_ref () =
  let g = Prng.create 44 in
  let run name a b =
    let r = Gf2_matrix.rows a
    and k = Gf2_matrix.cols a
    and c = Gf2_matrix.cols b in
    let ra = Array.init r (Gf2_matrix.row a) in
    let rb = Array.init k (Gf2_matrix.row b) in
    let expect = Oracle.mul_rows ra rb ~cols:c in
    (* mul_wide unconditionally — all these shapes sit far below the
       mul_wide_min_rows cutover, which is the point: the 16-bit tables
       must agree with the oracle everywhere, not just where mul selects
       them. *)
    let wide =
      Bcc_kern.Gf2.unpack
        (Bcc_kern.Gf2.mul_wide
           (Bcc_kern.Gf2.pack ~cols:k ra)
           (Bcc_kern.Gf2.pack ~cols:c rb))
    in
    check_bool name true (Array.for_all2 Bitvec.equal expect wide)
  in
  List.iter
    (fun (r, k, c) ->
      run
        (Printf.sprintf "wide %dx%d.%dx%d" r k k c)
        (Gf2_matrix.random g ~rows:r ~cols:k)
        (Gf2_matrix.random g ~rows:k ~cols:c))
    [ (1, 1, 1); (3, 5, 7); (64, 64, 64); (70, 130, 65); (130, 70, 128) ];
  List.iter
    (fun (n, r) ->
      run
        (Printf.sprintf "wide deficient n=%d r=%d" n r)
        (Gf2_matrix.random_of_rank_at_most g ~n ~r)
        (Gf2_matrix.random g ~rows:n ~cols:n))
    [ (20, 3); (64, 10); (100, 64) ]

(* ----------------------------------------------------------- hit counts *)

(* Known answers for the two Monte-Carlo hit counters, at every seed and
   domain count: [Distinguishers.advantage] (threshold exceedances) and
   [Advantage.protocol_gap] (accepting runs).  Each value is a
   difference of two hit rates over 100 (70) trials each, so a changed
   count moves it by at least 1/100 (1/70). *)

let check_known name ~expect run =
  List.iter
    (fun (seed, want) ->
      List.iter
        (fun d ->
          with_domains d (fun () ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s seed=%d domains=%d" name seed d)
                want (run (Prng.create seed))))
        [ 1; 4 ])
    expect

let test_advantage_known_answers () =
  check_known "advantage"
    ~expect:[ (1, 0.87); (2, 0.62); (42, 0.97) ]
    (Distinguishers.advantage Distinguishers.total_edges ~n:32 ~k:12
       ~calibration:30 ~trials:100)

let test_protocol_gap_known_answers () =
  let n = 16 in
  let proto =
    Distinguisher_protocols.threshold_distinguisher
      (Distinguisher_protocols.degree_protocol ~n)
      ~statistic:(fun s ->
        float_of_int s.Distinguisher_protocols.total_edges)
      ~threshold:(float_of_int (n * (n - 1)) /. 2.0)
  in
  let sample_yes g = Progress.sample_planted_rows ~n ~k:6 g in
  let sample_no g = Progress.sample_rand_rows ~n g in
  check_known "gap"
    ~expect:
      [ (1, 0.5714285714285714); (2, 0.37142857142857144);
        (42, 0.52857142857142869) ]
    (Advantage.protocol_gap proto ~sample_yes ~sample_no ~trials:70)

(* ----------------------------------------------------- artifact pinning *)

let artifact_fingerprint f seed =
  Artifact.to_string ~pretty:true (Experiments.artifact ~seed (f ~seed ()))

let test_e1_artifact_identical_across_pools () =
  let f ~seed () = Experiments.e1_lemma_1_10 ~seed () in
  let seq = with_domains 1 (fun () -> artifact_fingerprint f 5) in
  let par = with_domains 4 (fun () -> artifact_fingerprint f 5) in
  check_string "e1 artifact" seq par

let test_e5_artifact_identical_across_pools () =
  let f ~seed () = Experiments.e5_distinguisher_advantage ~seed ~n:96 () in
  let seq = with_domains 1 (fun () -> artifact_fingerprint f 5) in
  let par = with_domains 4 (fun () -> artifact_fingerprint f 5) in
  check_string "e5 artifact" seq par

let () =
  Alcotest.run "kern"
    [
      ( "popcount",
        [
          Alcotest.test_case "LUT vs SWAR (words)" `Quick test_popcount_lut_vs_swar;
          Alcotest.test_case "popcount_int" `Quick test_popcount_int;
          Alcotest.test_case "first_set" `Quick test_first_set;
        ] );
      ( "gf2",
        [
          Alcotest.test_case "transpose64 involution" `Quick test_transpose64_involution;
          Alcotest.test_case "transpose vs ref" `Quick test_transpose_vs_ref;
          Alcotest.test_case "rank random" `Quick test_rank_random;
          Alcotest.test_case "rank identity" `Quick test_rank_identity;
          Alcotest.test_case "rank deficient" `Quick test_rank_deficient;
          Alcotest.test_case "mul vs ref" `Quick test_mul_vs_ref;
          Alcotest.test_case "mul identity" `Quick test_mul_identity;
          Alcotest.test_case "mul wide vs ref" `Quick test_mul_wide_vs_ref;
          Alcotest.test_case "expand_rows batch" `Quick test_expand_rows_matches_expand;
        ] );
      ( "enum",
        [
          Alcotest.test_case "counts vs per-input" `Quick test_enum_counts_vs_per_input;
          Alcotest.test_case "gray walk covers cube" `Quick test_iter_gray_covers_cube;
          Alcotest.test_case "count_above strict" `Quick test_count_above_strict;
        ] );
      ( "wht",
        [
          Alcotest.test_case "blocked vs naive (n<=10)" `Quick test_wht_blocked_vs_naive;
          Alcotest.test_case "parallel identical" `Quick test_wht_parallel_identical;
          Alcotest.test_case "transform bit-identical" `Quick test_fourier_transform_exact;
          Alcotest.test_case "inplace_float allocates nothing" `Quick
            test_wht_float_no_alloc;
        ] );
      ( "buf",
        [
          Alcotest.test_case "i64 vs oracle" `Quick test_buf_i64_vs_oracle;
          Alcotest.test_case "int_create_uninit around the huge-page length"
            `Quick test_buf_uninit_hugepage_threshold;
        ] );
      ( "hit counts",
        [
          Alcotest.test_case "advantage known answers" `Quick
            test_advantage_known_answers;
          Alcotest.test_case "protocol_gap known answers" `Quick
            test_protocol_gap_known_answers;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "e1 identical at 1 and 4 domains" `Quick
            test_e1_artifact_identical_across_pools;
          Alcotest.test_case "e5 identical at 1 and 4 domains" `Quick
            test_e5_artifact_identical_across_pools;
        ] );
    ]
