(* Tests for the benchmark's helpers: the percentile rule, the /proc and
   /sys parsers, and the sparse pipeline's working-set estimate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_int_opt = Alcotest.(check (option int))
let check_string_opt = Alcotest.(check (option string))

(* ------------------------------------------------------ Percentiles *)

(* op_p50_ms and op_p90_ms are Stats.quantile: linear interpolation
   between order statistics, on a copy of the samples. *)
let test_percentile_rule () =
  let ten = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check_float "p50 of 1..10 averages the middle two" 5.5 (Stats.quantile ten 0.5);
  check_float "p90 of 1..10 interpolates 9 and 10" 9.1 (Stats.quantile ten 0.9);
  check_float "p90 of one op is that op" 7.0 (Stats.quantile [| 7.0 |] 0.9);
  check_bool "samples untouched" true (ten.(0) = 10.0 && ten.(9) = 1.0)

(* ---------------------------------------------------------- Procfs *)

(* Field 2 holds parentheses and spaces; fields count from the last ')'. *)
let stat_line =
  "4242 (odd (name) x) R 1 4242 4242 0 -1 4194304 1500 3 7 0 250 30 0 0 20 0 3 0 \
   12345 1000000 200 18446744073709551615\n"

let test_parse_stat () =
  match Procfs.parse_stat stat_line with
  | None -> Alcotest.fail "fixture did not parse"
  | Some st ->
      check_int "minflt" 1500 st.minflt;
      check_int "majflt" 7 st.majflt;
      check_int "utime" 250 st.utime_ticks;
      check_int "stime" 30 st.stime_ticks;
      check_bool "truncated line" true
        (Option.is_none (Procfs.parse_stat "4242 (x) R 1 2 3 4 5 6 7"));
      check_bool "no comm" true (Option.is_none (Procfs.parse_stat "garbage"))

let test_self_stat_live () =
  if Sys.file_exists "/proc/self/stat" then begin
    let a = Procfs.self_stat () in
    ignore (Sys.opaque_identity (Array.make 1_000_000 0));
    let b = Procfs.self_stat () in
    check_bool "minor faults counted" true (a.minflt > 0);
    check_bool "monotone" true (b.minflt >= a.minflt);
    check_bool "VmHWM readable" true
      (match Procfs.self_status_kb "VmHWM" with Some kb -> kb > 0 | None -> false)
  end

let status_text =
  "Name:\tmain.exe\nVmPeak:\t  409600 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\nThreads:\t3\n"

let meminfo_text =
  "MemTotal:        8211568 kB\nMemFree:         6348052 kB\nMemAvailable:    7693392 kB\nHugePages_Total:       0\n"

let test_parse_kb () =
  check_int_opt "VmHWM (tab separated)" (Some 2048) (Procfs.parse_kb status_text ~key:"VmHWM");
  check_int_opt "VmRSS" (Some 1024) (Procfs.parse_kb status_text ~key:"VmRSS");
  check_int_opt "unitless field" (Some 3) (Procfs.parse_kb status_text ~key:"Threads");
  check_int_opt "missing" None (Procfs.parse_kb status_text ~key:"VmSwap");
  check_int_opt "a prefix of a key is not the key" None (Procfs.parse_kb status_text ~key:"Vm");
  check_int_opt "MemAvailable" (Some 7693392) (Procfs.parse_kb meminfo_text ~key:"MemAvailable");
  check_int_opt "MemTotal" (Some 8211568) (Procfs.parse_kb meminfo_text ~key:"MemTotal");
  check_int_opt "HugePages_Total" (Some 0) (Procfs.parse_kb meminfo_text ~key:"HugePages_Total")

let test_parse_thp_and_size () =
  check_string_opt "madvise" (Some "madvise") (Procfs.parse_thp "always [madvise] never\n");
  check_string_opt "always" (Some "always") (Procfs.parse_thp "[always] madvise never");
  check_string_opt "no brackets" None (Procfs.parse_thp "always madvise never");
  check_int_opt "K" (Some 110100480) (Procfs.parse_size "107520K\n");
  check_int_opt "M" (Some (2 * 1024 * 1024)) (Procfs.parse_size "2M");
  check_int_opt "bytes" (Some 512) (Procfs.parse_size "512");
  check_int_opt "empty" None (Procfs.parse_size "");
  check_int_opt "bad unit" None (Procfs.parse_size "12Q")

(* --------------------------------------------------------- Memplan *)

let large_n = 200_000
let large_p = 1.0 /. Float.sqrt (float_of_int large_n)

let test_estimate_at_sparse_large () =
  let n = large_n and p = large_p and k = 338 in
  let entries = Memplan.csr_entries ~n ~p ~k in
  check_bool "~8.95e7 CSR entries" true (entries > 8.9e7 && entries < 9.0e7);
  let csr = Memplan.csr_bytes ~n ~p ~k in
  check_bool "CSR ~717 MB" true (csr > 715e6 && csr < 720e6);
  let ws = Memplan.working_set_bytes ~n ~p ~k in
  (* Measured peaks of one instance: 1.7-2.2 GB. *)
  check_bool "working set 2.0-2.4 GB" true (ws > 2.0e9 && ws < 2.4e9);
  check_bool "six-sigma capacity above the mean" true
    (Memplan.pairs_hi ~n ~p > Memplan.pairs_mean ~n ~p);
  check_bool "grows with n" true
    (Memplan.working_set_bytes ~n:(2 * n) ~p ~k > ws)

let test_estimate_matches_sampler () =
  let n = 4096 and p = 0.02 and k = 32 in
  let g, _ = Sparse.sample_planted_sharded (Prng.create 7) ~n ~p ~k in
  let m = float_of_int (Sparse.edge_count g) in
  let expected = Memplan.csr_entries ~n ~p ~k in
  let std = 2.0 *. Float.sqrt (Memplan.pairs_mean ~n ~p) in
  check_bool "sampled entries within 5 sigma of the estimate" true
    (Float.abs (m -. expected) < 5.0 *. std);
  check_float "computed CSR bytes"
    (8.0 *. float_of_int (Array.length g.Bcc_kern.Spgraph.row_ptr
                          + Bcc_kern.Buf.int_length g.Bcc_kern.Spgraph.cols))
    (8.0 *. (m +. float_of_int (n + 1)))

let test_preflight () =
  check_bool "fits" true (Result.is_ok (Memplan.preflight ~needed:1e9 ~available_kb:(Some 2_000_000)));
  check_bool "unknown availability runs" true
    (Result.is_ok (Memplan.preflight ~needed:1e12 ~available_kb:None));
  Alcotest.(check (result unit string))
    "names both sizes"
    (Error
       "needs an estimated 3.00 GB working set but MemAvailable is 1.02 GB; refusing \
        to start rather than be OOM-killed")
    (Memplan.preflight ~needed:3e9 ~available_kb:(Some 1_000_000))

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "p50 and p90 rule" `Quick test_percentile_rule ]);
      ( "procfs",
        [
          Alcotest.test_case "stat fields after comm" `Quick test_parse_stat;
          Alcotest.test_case "live /proc/self" `Quick test_self_stat_live;
          Alcotest.test_case "kB fields" `Quick test_parse_kb;
          Alcotest.test_case "thp mode and cache size" `Quick test_parse_thp_and_size;
        ] );
      ( "memplan",
        [
          Alcotest.test_case "sparse-large estimate" `Quick test_estimate_at_sparse_large;
          Alcotest.test_case "estimate vs sampler" `Quick test_estimate_matches_sampler;
          Alcotest.test_case "preflight" `Quick test_preflight;
        ] );
    ]
