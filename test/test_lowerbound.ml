(* Tests for the lower-bound framework: lemma verifiers, the progress
   function, the subset-tree walk, and advantage estimation. *)

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checkf4 = Alcotest.(check (float 1e-4))

let g0 () = Prng.create 77

(* --- Lemma verifiers --- *)

let test_lemma_1_10_holds_for_family () =
  let g = g0 () in
  List.iter
    (fun f ->
      let c = Lemma_verify.lemma_1_10 f in
      check_bool "holds" true (Lemma_verify.holds c))
    [ Boolfun.majority 10; Boolfun.dictator 10 3; Boolfun.random g 10;
      Boolfun.parity 10 [ 0; 5 ]; Boolfun.const 10 true ]

let test_lemma_1_10_dictator_exact () =
  (* Dictator: distance 1/2 at its own coordinate, 0 elsewhere. *)
  let c = Lemma_verify.lemma_1_10 (Boolfun.dictator 8 0) in
  checkf "1/(2n)" (1.0 /. 16.0) c.Lemma_verify.measured

let test_lemma_1_8_holds () =
  let g = g0 () in
  List.iter
    (fun k ->
      let c = Lemma_verify.lemma_1_8 g (Boolfun.majority 12) ~k in
      check_bool "holds" true (Lemma_verify.holds c))
    [ 1; 2; 3 ]

let test_lemma_1_8_monotone_in_k () =
  (* For majority the measured quantity grows with k. *)
  let g = g0 () in
  let m k = (Lemma_verify.lemma_1_8 g (Boolfun.majority 12) ~k).Lemma_verify.measured in
  check_bool "monotone" true (m 1 < m 2 && m 2 < m 3)

let test_lemma_1_8_k0 () =
  let g = g0 () in
  let c = Lemma_verify.lemma_1_8 g (Boolfun.majority 8) ~k:0 in
  checkf "k=0 distance 0" 0.0 c.Lemma_verify.measured

let test_lemma_4_4_full_domain_reduces () =
  (* On the full domain Lemma 4.4's quantity coincides with Lemma 1.10's. *)
  let f = Boolfun.majority 10 in
  let d = Restriction.full 10 in
  let c44 = Lemma_verify.lemma_4_4 d f in
  let c110 = Lemma_verify.lemma_1_10 f in
  checkf "same measured" c110.Lemma_verify.measured c44.Lemma_verify.measured

let test_lemma_4_4_random_domains () =
  let g = g0 () in
  for t = 1 to 4 do
    let d = Restriction.random_of_deficit g ~n:12 ~t:(float_of_int t) in
    let f = Boolfun.random g 12 in
    check_bool "holds" true (Lemma_verify.holds (Lemma_verify.lemma_4_4 d f))
  done

let test_lemma_4_3_random_domains () =
  let g = g0 () in
  for t = 1 to 3 do
    let d = Restriction.random_of_deficit g ~n:12 ~t:(float_of_int t) in
    let f = Boolfun.random g 12 in
    check_bool "holds" true (Lemma_verify.holds (Lemma_verify.lemma_4_3 g d f ~k:2))
  done

let test_lemma_5_2_wht_equals_direct () =
  let g = g0 () in
  List.iter
    (fun kp1 ->
      let f = Boolfun.random g kp1 in
      let a = Lemma_verify.lemma_5_2 f in
      let b = Lemma_verify.lemma_5_2_direct f in
      checkf4 "two computations agree" a.Lemma_verify.measured b.Lemma_verify.measured)
    [ 3; 6; 9 ]

let test_lemma_5_2_holds_family () =
  let g = g0 () in
  List.iter
    (fun f -> check_bool "holds" true (Lemma_verify.holds (Lemma_verify.lemma_5_2 f)))
    [ Boolfun.random g 8; Boolfun.majority 8; Boolfun.const 8 true;
      Boolfun.dictator 8 7; Boolfun.parity 8 [ 0; 1; 2 ] ]

let test_lemma_5_2_dictator_last_tight () =
  (* f(x) = x_{k+1} has E[f] = 1/2 and exactly hits sum = 1/4 via b = 0:
     U_[0] forces the last bit to 0, so the distance is 1/2 and its square
     1/4 — a sanity anchor for the Fourier identity. *)
  let f = Boolfun.dictator 6 5 in
  let c = Lemma_verify.lemma_5_2 f in
  checkf "sum = 1/4" 0.25 c.Lemma_verify.measured;
  checkf "bound = 1/2" 0.5 c.Lemma_verify.bound

let test_expectation_ub () =
  (* f = last bit: under U_[b] the last bit is x.b, which for b = 0 is
     always 0 and for b = e_1 is x_1 (expectation 1/2). *)
  let f = Boolfun.dictator 4 3 in
  checkf "b = 0" 0.0 (Lemma_verify.expectation_ub f ~b:(Bitvec.of_string "000"));
  checkf "b = e_0" 0.5 (Lemma_verify.expectation_ub f ~b:(Bitvec.of_string "100"))

let test_dist_ub_support () =
  let b = Bitvec.of_string "10" in
  let d = Lemma_verify.dist_ub ~b in
  Alcotest.(check int) "support size 4" 4 (Dist.support_size d);
  (* Each point (x, x.b): x = 01 (x_0=0,x_1=1): x.b = 0 -> encoding 2. *)
  checkf "contains (01,0)" 0.25 (Dist.prob d 0b010)

let test_lemma_6_1_full_domain () =
  let g = g0 () in
  let kp1 = 11 in
  let f = Boolfun.random g kp1 in
  let d = Restriction.full kp1 in
  let c = Lemma_verify.lemma_6_1 d f in
  (* On the full domain the average distance is at most sqrt of lemma 5.2's
     bound scaled; just check it is small and bounded by 1. *)
  check_bool "small" true (c.Lemma_verify.measured < 0.1)

let test_lemma_7_3_exact_small () =
  let g = g0 () in
  let f = Boolfun.random g 6 in
  let c = Lemma_verify.lemma_7_3 g f ~k:3 in
  check_bool "holds" true (Lemma_verify.holds c)

let test_lemma_7_3_constant_function () =
  let g = g0 () in
  let f = Boolfun.const 6 false in
  let c = Lemma_verify.lemma_7_3 g f ~k:3 in
  checkf "zero for constants" 0.0 c.Lemma_verify.measured

let test_claim_8_violations_rare () =
  let g = g0 () in
  let d = Restriction.random_subset g ~n:13 ~keep_prob:0.5 in
  let viol = Lemma_verify.claim_8 d ~k:9 ~samples:200 g in
  check_bool "rare" true (viol <= 0.05)

let test_claim_8_invalid () =
  let g = g0 () in
  let d = Restriction.full 8 in
  Alcotest.check_raises "k range" (Invalid_argument "Lemma_verify.claim_8: need 1 <= k < arity")
    (fun () -> ignore (Lemma_verify.claim_8 d ~k:8 ~samples:10 g))

let test_claim_5_violations_rare () =
  let g = g0 () in
  let d = Restriction.random_subset g ~n:13 ~keep_prob:0.5 in
  let viol = Lemma_verify.claim_5 d ~samples:300 g in
  check_bool "rare" true (viol <= 0.05)

(* --- Progress --- *)

let first_bit_protocol n =
  Turn_model.of_round_protocol ~n ~rounds:1 (fun ~id:_ ~input ~history:_ ->
      Bitvec.get input 0)

let test_enumerate_rand_size () =
  let d = Progress.enumerate_rand ~n:3 in
  (* 6 off-diagonal bits. *)
  Alcotest.(check int) "64 matrices" 64 (Dist.support_size d)

let test_enumerate_planted_forced () =
  let d = Progress.enumerate_planted ~n:3 ~clique:[ 0; 1 ] in
  (* 2 forced entries, 4 free: 16 matrices, all with the clique present. *)
  Alcotest.(check int) "16 matrices" 16 (Dist.support_size d);
  List.iter
    (fun rows ->
      check_bool "clique present" true (Bitvec.get rows.(0) 1 && Bitvec.get rows.(1) 0))
    (Dist.support d)

let test_progress_bounds_real_distance () =
  let n = 4 and k = 2 in
  let proto = first_bit_protocol n in
  let progress = Progress.progress_exact proto ~n ~k ~turns:n in
  let real = Progress.real_distance_exact proto ~n ~k ~turns:n in
  check_bool "real <= progress" true (real <= progress +. 1e-12)

let test_progress_monotone_in_turns () =
  let n = 4 and k = 2 in
  let proto = first_bit_protocol n in
  let p1 = Progress.progress_exact proto ~n ~k ~turns:1 in
  let p4 = Progress.progress_exact proto ~n ~k ~turns:4 in
  check_bool "more turns, more progress" true (p4 >= p1 -. 1e-12)

let test_progress_zero_turns () =
  let proto = first_bit_protocol 4 in
  checkf "no progress at t=0" 0.0 (Progress.progress_exact proto ~n:4 ~k:2 ~turns:0)

let test_constant_protocol_no_progress () =
  let proto =
    Turn_model.of_round_protocol ~n:4 ~rounds:1 (fun ~id:_ ~input:_ ~history:_ -> true)
  in
  checkf "constant reveals nothing" 0.0
    (Progress.progress_exact proto ~n:4 ~k:2 ~turns:4)

let test_bounds_values () =
  checkf "theorem 1.6 bound" 2.0 (Progress.theorem_1_6_bound ~n:4 ~k:2);
  check_bool "theorem 4.1 grows with j" true
    (Progress.theorem_4_1_bound ~n:64 ~k:2 ~j:2
     > Progress.theorem_4_1_bound ~n:64 ~k:2 ~j:1)

let test_progress_sampled_close_to_exact () =
  let n = 4 and k = 2 in
  let proto = first_bit_protocol n in
  let g = g0 () in
  let exact = Progress.progress_exact proto ~n ~k ~turns:n in
  let sampled = Progress.progress_sampled proto ~n ~k ~turns:n ~cliques:6 ~samples:4000 g in
  check_bool "sampled close" true (Float.abs (exact -. sampled) < 0.1)

(* --- Subset tree --- *)

let test_subset_tree_full_domain () =
  let g = g0 () in
  let d = Restriction.full 12 in
  let st = Subset_tree.simulate g ~d ~k:4 ~trials:200 in
  checkf "never exceeds on full domain" 0.0 st.Subset_tree.prob_z_exceeds_3t;
  checkf "no empties" 0.0 st.Subset_tree.prob_hit_empty;
  checkf "no bad edges" 0.0 st.Subset_tree.bad_edge_rate;
  (* On the full cube, |D^{a_1..a_l}| = 2^{n-l} exactly: Z stays 0. *)
  checkf "Z stays zero" 0.0 st.Subset_tree.mean_final_z

let test_subset_tree_shrunk_domain () =
  let g = g0 () in
  let d = Restriction.random_of_deficit g ~n:12 ~t:3.0 in
  let st = Subset_tree.simulate g ~d ~k:4 ~trials:200 in
  check_bool "exceed rate small" true (st.Subset_tree.prob_z_exceeds_3t < 0.2);
  check_bool "mean Z bounded" true
    (Float.is_nan st.Subset_tree.mean_final_z || st.Subset_tree.mean_final_z < 9.0)

let test_fact_4_5 () =
  let g = g0 () in
  let d = Restriction.random_of_deficit g ~n:12 ~t:2.0 in
  let bad = Subset_tree.fact_4_5_bad_edge_probability d in
  (* O(t/n) with t = 2, n = 12: should be well below 1/2. *)
  check_bool "bad edges rare" true (bad < 0.5);
  checkf "full domain has none" 0.0
    (Subset_tree.fact_4_5_bad_edge_probability (Restriction.full 10))

(* --- Advantage --- *)

let test_protocol_gap_detects () =
  let g = g0 () in
  (* A protocol that outputs whether the first processor's first bit is 1
     separates point distributions completely. *)
  let proto =
    {
      Bcast.name = "peek";
      msg_bits = 1;
      rounds = 1;
      start =
        Bcast.spawn_only (fun ~id:_ ~n:_ ~input ~rand:_ ->
          {
            Bcast.send = (fun ~round:_ -> if Bitvec.get input 0 then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> Bitvec.get input 0);
          });
    }
  in
  let gap =
    Advantage.protocol_gap proto
      ~sample_yes:(fun _ -> [| Bitvec.of_string "1" |])
      ~sample_no:(fun _ -> [| Bitvec.of_string "0" |])
      ~trials:20 g
  in
  checkf "full gap" 1.0 gap

let test_transcript_tv_control_small () =
  let g = g0 () in
  let proto = first_bit_protocol 3 in
  let sample g = Array.init 3 (fun _ -> Prng.bitvec g 3) in
  let noise = Advantage.transcript_tv_control proto ~sample ~samples:5000 g in
  check_bool "noise floor small" true (noise < 0.05)

let test_best_threshold_advantage () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 10.0; 11.0; 12.0 |] in
  checkf "separable" 1.0 (Advantage.best_threshold_advantage ~statistic_a:a ~statistic_b:b);
  let c = [| 1.0; 2.0 |] in
  checkf "identical" 0.0 (Advantage.best_threshold_advantage ~statistic_a:c ~statistic_b:c)

(* --- qcheck: the bounds hold for arbitrary random functions --- *)

let prop_lemma_1_10_random =
  QCheck.Test.make ~name:"Lemma 1.10 holds for random functions" ~count:60
    QCheck.small_int (fun seed ->
      Lemma_verify.holds (Lemma_verify.lemma_1_10 (Boolfun.random (Prng.create seed) 9)))

let prop_lemma_1_10_biased =
  QCheck.Test.make ~name:"Lemma 1.10 holds for biased functions" ~count:40
    (QCheck.pair QCheck.small_int (QCheck.float_range 0.05 0.95))
    (fun (seed, p) ->
      Lemma_verify.holds
        (Lemma_verify.lemma_1_10 (Boolfun.random_biased (Prng.create seed) 9 p)))

let prop_lemma_5_2_random =
  QCheck.Test.make ~name:"Lemma 5.2 holds for random functions" ~count:60
    QCheck.small_int (fun seed ->
      Lemma_verify.holds (Lemma_verify.lemma_5_2 (Boolfun.random (Prng.create seed) 8)))

let prop_lemma_4_4_random_domains =
  QCheck.Test.make ~name:"Lemma 4.4 holds on random domains" ~count:30
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let t = 1.0 +. float_of_int (seed mod 3) in
      let d = Restriction.random_of_deficit g ~n:11 ~t in
      Lemma_verify.holds (Lemma_verify.lemma_4_4 d (Boolfun.random g 11)))

let prop_lemma_7_3_random =
  QCheck.Test.make ~name:"Lemma 7.3 holds (sampled secrets)" ~count:20
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      Lemma_verify.holds
        (Lemma_verify.lemma_7_3 ~max_secrets:256 g (Boolfun.random g 7) ~k:4))

let prop_subset_tree_bounded =
  QCheck.Test.make ~name:"subset-tree exceed rate stays small" ~count:15
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let d = Restriction.random_of_deficit g ~n:10 ~t:2.0 in
      let st = Subset_tree.simulate g ~d ~k:3 ~trials:60 in
      st.Subset_tree.prob_z_exceeds_3t <= 0.5)

let () =
  Alcotest.run "lowerbound"
    [
      ( "lemma verifiers",
        [
          Alcotest.test_case "1.10 family" `Quick test_lemma_1_10_holds_for_family;
          Alcotest.test_case "1.10 dictator exact" `Quick test_lemma_1_10_dictator_exact;
          Alcotest.test_case "1.8 holds" `Quick test_lemma_1_8_holds;
          Alcotest.test_case "1.8 monotone in k" `Quick test_lemma_1_8_monotone_in_k;
          Alcotest.test_case "1.8 k=0" `Quick test_lemma_1_8_k0;
          Alcotest.test_case "4.4 reduces to 1.10" `Quick test_lemma_4_4_full_domain_reduces;
          Alcotest.test_case "4.4 random domains" `Quick test_lemma_4_4_random_domains;
          Alcotest.test_case "4.3 random domains" `Quick test_lemma_4_3_random_domains;
          Alcotest.test_case "5.2 WHT = direct" `Quick test_lemma_5_2_wht_equals_direct;
          Alcotest.test_case "5.2 family" `Quick test_lemma_5_2_holds_family;
          Alcotest.test_case "5.2 dictator anchor" `Quick test_lemma_5_2_dictator_last_tight;
          Alcotest.test_case "expectation over U_[b]" `Quick test_expectation_ub;
          Alcotest.test_case "U_[b] support" `Quick test_dist_ub_support;
          Alcotest.test_case "6.1 full domain" `Quick test_lemma_6_1_full_domain;
          Alcotest.test_case "7.3 exact small" `Quick test_lemma_7_3_exact_small;
          Alcotest.test_case "7.3 constants" `Quick test_lemma_7_3_constant_function;
          Alcotest.test_case "Claim 5" `Quick test_claim_5_violations_rare;
          Alcotest.test_case "Claim 8" `Quick test_claim_8_violations_rare;
          Alcotest.test_case "Claim 8 invalid" `Quick test_claim_8_invalid;
        ] );
      ( "progress",
        [
          Alcotest.test_case "enumerate rand" `Quick test_enumerate_rand_size;
          Alcotest.test_case "enumerate planted" `Quick test_enumerate_planted_forced;
          Alcotest.test_case "real <= progress" `Quick test_progress_bounds_real_distance;
          Alcotest.test_case "monotone in turns" `Quick test_progress_monotone_in_turns;
          Alcotest.test_case "zero turns" `Quick test_progress_zero_turns;
          Alcotest.test_case "constant protocol" `Quick test_constant_protocol_no_progress;
          Alcotest.test_case "bound values" `Quick test_bounds_values;
          Alcotest.test_case "sampled close to exact" `Slow test_progress_sampled_close_to_exact;
        ] );
      ( "subset tree",
        [
          Alcotest.test_case "full domain" `Quick test_subset_tree_full_domain;
          Alcotest.test_case "shrunk domain" `Quick test_subset_tree_shrunk_domain;
          Alcotest.test_case "Fact 4.5" `Quick test_fact_4_5;
        ] );
      ( "advantage",
        [
          Alcotest.test_case "protocol gap" `Quick test_protocol_gap_detects;
          Alcotest.test_case "tv control" `Quick test_transcript_tv_control_small;
          Alcotest.test_case "best threshold" `Quick test_best_threshold_advantage;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_lemma_1_10_random;
            prop_lemma_1_10_biased;
            prop_lemma_5_2_random;
            prop_lemma_4_4_random_domains;
            prop_lemma_7_3_random;
            prop_subset_tree_bounded;
          ] );
    ]
