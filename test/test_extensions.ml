(* Tests for the extension modules: classical clique baselines, the unicast
   model, the Section 3 framework, consistency sets, SBM, and triangles. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Clique baselines --- *)

let test_quasi_poly_recovers () =
  let g = Prng.create 1 in
  for trial = 1 to 5 do
    let n = 48 and k = 20 in
    let graph, clique = Planted.sample_planted (Prng.split g trial) ~n ~k in
    let seed_size = Clique.log_clique_size_bound n + 3 in
    let found = Clique.quasi_poly_find graph ~seed_size in
    check_bool "recovers the planted clique" true
      (List.for_all (fun v -> List.mem v found) clique)
  done

let test_quasi_poly_empty_on_random () =
  (* With seed_size above the random-graph clique ceiling, no seed is
     found. *)
  let g = Prng.create 2 in
  let n = 48 in
  let graph = Planted.sample_rand g n in
  let seed_size = Clique.log_clique_size_bound n + 4 in
  Alcotest.(check (list int)) "no clique seed in random graphs" []
    (Clique.quasi_poly_find graph ~seed_size)

let test_degree_recover_large_k () =
  let g = Prng.create 3 in
  let n = 128 and k = 48 in
  let graph, clique = Planted.sample_planted g ~n ~k in
  let module R = Clique.Recover (Graph_backend.Dense) in
  let found = R.degree_recover graph ~k in
  let hits = List.length (List.filter (fun v -> List.mem v found) clique) in
  check_bool "recovers most of a large clique" true (hits >= (k * 3 / 4))

(* --- Unicast --- *)

let test_lift_broadcast_equivalent () =
  (* A lifted broadcast protocol computes the same outputs. *)
  let m = 6 in
  let bp = Equality.deterministic_protocol ~m in
  let up = Unicast.lift_broadcast bp in
  let g = Prng.create 4 in
  let inputs = Array.init 4 (fun _ -> Prng.bitvec g m) in
  let rb = Bcast.run_deterministic bp ~inputs in
  let ru = Unicast.run_deterministic up ~inputs in
  check_bool "same outputs" true (rb.Bcast.outputs = ru.Unicast.outputs);
  (* With public state: each lifted processor steps its own copy. *)
  let n = 32 and k = 16 in
  let graph, _ = Planted.sample_planted (Prng.create 5) ~n ~k in
  let inputs = Array.init n (Digraph.out_row graph) in
  let pc = Planted_clique_algo.protocol ~n ~k in
  let rb = Bcast.run pc ~inputs ~rand:(Prng.create 6) in
  let ru = Unicast.run (Unicast.lift_broadcast pc) ~inputs ~rand:(Prng.create 6) in
  check_bool "same outputs with public state" true (rb.Bcast.outputs = ru.Unicast.outputs)

let test_unicast_channel_accounting () =
  let up = Unicast.lift_broadcast (Equality.deterministic_protocol ~m:5) in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 5) in
  let r = Unicast.run_deterministic up ~inputs in
  (* 5 rounds * 3 processors * 2 recipients * 1 bit. *)
  check_int "channel bits" 30 r.Unicast.channel_bits

let test_unicast_directed_messages () =
  (* Processor 0 sends its id+recipient to each peer; peers check. *)
  let proto =
    {
      Unicast.name = "addressed";
      msg_bits = 4;
      rounds = 1;
      spawn =
        (fun ~id ~n ~input:_ ~rand:_ ->
          let got = ref (-1) in
          {
            Unicast.send = (fun ~round:_ -> Array.init n (fun j -> (id + j) mod 16));
            receive = (fun ~round:_ inbox -> got := inbox.(0));
            finish = (fun () -> !got);
          });
    }
  in
  let inputs = Array.init 5 (fun _ -> Bitvec.create 1) in
  let r = Unicast.run_deterministic proto ~inputs in
  Array.iteri
    (fun j got -> check_int "processor j got 0+j" (j mod 16) got)
    r.Unicast.outputs

let test_unicast_committee_recovers () =
  let g = Prng.create 5 in
  let n = 48 and k = 20 in
  let graph, clique = Planted.sample_planted g ~n ~k in
  let inputs = Array.init n (Digraph.out_row graph) in
  let proto = Unicast_clique.protocol ~n ~seed_size:(Unicast_clique.recommended_seed_size n) in
  let result = Unicast.run proto ~inputs ~rand:g in
  check_bool "committee recovers the clique" true
    (List.for_all
       (fun v -> List.mem v (Unicast_clique.recovered_set result.Unicast.outputs))
       clique);
  check_int "round budget" (Unicast_clique.rounds ~n) result.Unicast.rounds_used

let test_unicast_committee_null () =
  let g = Prng.create 6 in
  let n = 48 in
  let graph = Planted.sample_rand g n in
  let inputs = Array.init n (Digraph.out_row graph) in
  let proto =
    Unicast_clique.protocol ~n ~seed_size:(Unicast_clique.recommended_seed_size n + 1)
  in
  let result = Unicast.run proto ~inputs ~rand:g in
  Alcotest.(check (list int)) "nothing claimed on random graphs" []
    (Unicast_clique.recovered_set result.Unicast.outputs)

(* --- Framework --- *)

let majority_proto ~n ~bits =
  Turn_model.of_round_protocol ~n ~rounds:1 (fun ~id:_ ~input ~history:_ ->
      Bitvec.popcount input * 2 > bits)

let test_framework_triangle_inequality () =
  let g = Prng.create 7 in
  List.iter
    (fun (d, proto) ->
      let real = Framework.real_distance_sampled d proto ~samples:3000 g in
      let progress = Framework.progress_sampled d proto ~indices:6 ~samples:3000 g in
      let noise = Framework.noise_floor d proto ~samples:3000 g in
      check_bool
        (d.Framework.name ^ ": real <= progress + noise")
        true
        (real <= progress +. (2.0 *. noise) +. 0.02))
    [
      (Framework.planted_clique ~n:5 ~k:2, majority_proto ~n:5 ~bits:5);
      (Framework.toy_prg ~n:5 ~k:4, majority_proto ~n:5 ~bits:5);
      (Framework.full_prg { Full_prg.n = 5; k = 3; m = 6 }, majority_proto ~n:5 ~bits:6);
    ]

let test_framework_index_sampler_fixed () =
  (* Two samplers from the same index generator produce inputs consistent
     with a single index (toy PRG: same b). *)
  let d = Framework.toy_prg ~n:4 ~k:6 in
  let sampler = d.Framework.sampler_for_index (Prng.create 8) in
  let inputs1 = sampler (Prng.create 100) in
  let inputs2 = sampler (Prng.create 200) in
  (* All 8 rows must lie on a single hyperplane: stack them and check rank
     <= 6 (uniform 7-bit rows would have rank 7 whp). *)
  let all_rows = Array.append inputs1 inputs2 in
  check_bool "consistent with one secret b" true
    (Gf2_matrix.rank (Gf2_matrix.of_rows all_rows) <= 6)

let test_framework_mismatch () =
  let d = Framework.planted_clique ~n:5 ~k:2 in
  Alcotest.check_raises "processor mismatch"
    (Invalid_argument "Framework: protocol/decomposition processor count mismatch")
    (fun () ->
      ignore
        (Framework.real_distance_sampled d (majority_proto ~n:4 ~bits:5) ~samples:10
           (Prng.create 1)))

(* --- Consistency --- *)

let test_consistency_exact_halving () =
  (* A protocol broadcasting one fresh input bit per spoken turn cuts D_p
     exactly in half each time. *)
  let n = 3 and input_bits = 8 in
  let proto =
    Turn_model.of_round_protocol ~n ~rounds:3 (fun ~id:_ ~input ~history ->
        Bitvec.get input (Array.length history / n))
  in
  let g = Prng.create 9 in
  let sample g = Array.init n (fun _ -> Prng.bitvec g input_bits) in
  let st = Consistency.measure proto ~sample ~input_bits ~id:1 ~turns:9 ~trials:40 g in
  check_int "spoke three times" 3 st.Consistency.speaks;
  checkf "mean deficit exactly 3" 3.0 st.Consistency.mean_deficit;
  checkf "never exceeds" 0.0 st.Consistency.prob_deficit_exceeds

let test_consistency_constant_protocol () =
  (* A constant protocol reveals nothing: deficit 0. *)
  let n = 3 and input_bits = 8 in
  let proto =
    Turn_model.of_round_protocol ~n ~rounds:2 (fun ~id:_ ~input:_ ~history:_ -> true)
  in
  let g = Prng.create 10 in
  let sample g = Array.init n (fun _ -> Prng.bitvec g input_bits) in
  let st = Consistency.measure proto ~sample ~input_bits ~id:0 ~turns:6 ~trials:20 g in
  checkf "zero deficit" 0.0 st.Consistency.mean_deficit

(* --- SBM --- *)

let test_sbm_balanced () =
  let g = Prng.create 11 in
  let _, labels = Sbm.sample g ~n:40 ~p_in:0.7 ~p_out:0.3 in
  let zeros = Array.fold_left (fun acc l -> if l = 0 then acc + 1 else acc) 0 labels in
  check_int "balanced" 20 zeros

let test_sbm_density () =
  let g = Prng.create 12 in
  let graph, labels = Sbm.sample g ~n:60 ~p_in:0.9 ~p_out:0.1 in
  (* Count within/across edge rates. *)
  let win = ref 0 and wtot = ref 0 and acr = ref 0 and atot = ref 0 in
  for i = 0 to 59 do
    for j = 0 to 59 do
      if i <> j then begin
        if labels.(i) = labels.(j) then begin
          incr wtot;
          if Digraph.has_edge graph i j then incr win
        end
        else begin
          incr atot;
          if Digraph.has_edge graph i j then incr acr
        end
      end
    done
  done;
  let rate a b = float_of_int a /. float_of_int b in
  check_bool "within dense" true (rate !win !wtot > 0.8);
  check_bool "across sparse" true (rate !acr !atot < 0.2)

let test_sbm_alignment () =
  let a = [| 0; 0; 1; 1 |] in
  checkf "perfect" 1.0 (Sbm.alignment a a);
  checkf "swap invariant" 1.0 (Sbm.alignment a [| 1; 1; 0; 0 |]);
  checkf "half" 0.5 (Sbm.alignment a [| 0; 1; 0; 1 |])

let test_sbm_recovery_strong_signal () =
  let g = Prng.create 13 in
  let graph, truth = Sbm.sample g ~n:80 ~p_in:0.9 ~p_out:0.1 in
  let recovered = Sbm.degree_profile_recover graph in
  check_bool "strong signal recovered" true (Sbm.alignment truth recovered > 0.9)

let test_sbm_gap_zero_is_chance () =
  let g = Prng.create 14 in
  let total = ref 0.0 in
  for i = 1 to 10 do
    let graph, truth = Sbm.sample (Prng.split g i) ~n:60 ~p_in:0.5 ~p_out:0.5 in
    total := !total +. Sbm.alignment truth (Sbm.degree_profile_recover graph)
  done;
  check_bool "chance-level at zero gap" true (!total /. 10.0 < 0.75)

(* --- Triangles --- *)

let test_triangle_count_small () =
  (* A bidirectional triangle on {0,1,2} plus an isolated vertex. *)
  let g = Digraph.create 4 in
  List.iter
    (fun (i, j) ->
      Digraph.add_edge g i j;
      Digraph.add_edge g j i)
    [ (0, 1); (0, 2); (1, 2) ];
  check_int "one triangle" 1 (Graph_backend.Dense.count_triangles g);
  check_int "no k4" 0 (Graph_backend.Dense.count_k4 g);
  Digraph.remove_edge g 1 2;
  check_int "direction matters" 0 (Graph_backend.Dense.count_triangles g)

let test_k4_count_small () =
  let g = Digraph.create 5 in
  let quad = [ 0; 1; 2; 4 ] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i <> j then begin
            Digraph.add_edge g i j;
            Digraph.add_edge g j i
          end)
        quad)
    quad;
  check_int "4 triangles" 4 (Graph_backend.Dense.count_triangles g);
  check_int "one k4" 1 (Graph_backend.Dense.count_k4 g)

let test_triangle_count_matches_naive () =
  let g = Prng.create 15 in
  for trial = 1 to 5 do
    let graph = Planted.sample_rand (Prng.split g trial) 24 in
    let naive = ref 0 in
    for i = 0 to 23 do
      for j = i + 1 to 23 do
        for l = j + 1 to 23 do
          if Digraph.is_bidirectional_clique graph [ i; j; l ] then incr naive
        done
      done
    done;
    check_int "bitset count = naive" !naive (Graph_backend.Dense.count_triangles graph)
  done

let test_triangle_expectation_matches () =
  let g = Prng.create 16 in
  let n = 64 in
  let trials = 40 in
  let total = ref 0.0 in
  for i = 1 to trials do
    let graph = Planted.sample_rand (Prng.split g i) n in
    total := !total +. float_of_int (Graph_backend.Dense.count_triangles graph)
  done;
  let mean = !total /. float_of_int trials in
  let expected = Triangles.expected_random n in
  let sd = Triangles.stddev_random n in
  check_bool "mean within 4 standard errors" true
    (Float.abs (mean -. expected) < 4.0 *. sd /. Float.sqrt (float_of_int trials))

let test_triangle_zscore_shape () =
  let n = 256 in
  check_bool "undetectable at n^{1/4}" true (Triangles.zscore ~n ~k:4 < 0.5);
  check_bool "detectable above sqrt n" true (Triangles.zscore ~n ~k:32 > 2.0);
  check_bool "monotone" true (Triangles.zscore ~n ~k:16 < Triangles.zscore ~n ~k:24);
  checkf "no excess below pairs" 0.0 (Triangles.planted_excess ~n ~k:1)

(* --- Distinguisher protocols (in-model) --- *)

let test_degree_protocol_matches_local () =
  let g = Prng.create 17 in
  let n = 32 in
  let graph = Planted.sample_rand g n in
  let inputs = Array.init n (Digraph.out_row graph) in
  let proto = Distinguisher_protocols.degree_protocol ~n in
  let r = Bcast.run_deterministic proto ~inputs in
  let s = r.Bcast.outputs.(0) in
  check_int "total edges" (Digraph.edge_count graph)
    s.Distinguisher_protocols.total_edges;
  let max_deg = ref 0 in
  for i = 0 to n - 1 do
    max_deg := max !max_deg (Digraph.out_degree graph i)
  done;
  check_int "max degree" !max_deg s.Distinguisher_protocols.max_total_degree

let test_sampled_clique_protocol_matches_local () =
  let g = Prng.create 18 in
  let n = 32 and s = 12 in
  let graph = Planted.sample_rand g n in
  let inputs = Array.init n (Digraph.out_row graph) in
  let proto = Distinguisher_protocols.sampled_clique_protocol ~n ~sample_size:s in
  let r = Bcast.run_deterministic proto ~inputs in
  let expected =
    List.length (Clique.max_clique_of_subset graph (List.init s (fun i -> i)))
  in
  check_int "induced clique size" expected r.Bcast.outputs.(0);
  Array.iter (fun o -> check_int "all agree" r.Bcast.outputs.(0) o) r.Bcast.outputs

let test_triangle_distinguisher_wrappers () =
  let g = Prng.create 25 in
  let graph = Planted.sample_rand g 40 in
  let t = Distinguishers.triangle_count.Distinguishers.statistic g graph in
  let q = Distinguishers.k4_count.Distinguishers.statistic g graph in
  Alcotest.(check (float 1e-9)) "triangle statistic = exact count"
    (float_of_int (Graph_backend.Dense.count_triangles graph)) t;
  Alcotest.(check (float 1e-9)) "k4 statistic = exact count"
    (float_of_int (Graph_backend.Dense.count_k4 graph)) q

let test_in_model_gap_large_k () =
  let g = Prng.create 19 in
  let n = 64 in
  let proto =
    Distinguisher_protocols.threshold_distinguisher
      (Distinguisher_protocols.degree_protocol ~n)
      ~statistic:(fun s -> float_of_int s.Distinguisher_protocols.total_edges)
      ~threshold:(float_of_int (n * (n - 1)) /. 2.0 +. (1.2 *. float_of_int n))
  in
  let gap = Distinguisher_protocols.measured_gap proto ~n ~k:32 ~trials:40 g in
  check_bool "edge-count distinguisher sees k >> sqrt n" true (gap > 0.5)

let () =
  Alcotest.run "extensions"
    [
      ( "clique baselines",
        [
          Alcotest.test_case "quasi-poly recovers" `Quick test_quasi_poly_recovers;
          Alcotest.test_case "quasi-poly null" `Quick test_quasi_poly_empty_on_random;
          Alcotest.test_case "degree recovery" `Quick test_degree_recover_large_k;
        ] );
      ( "unicast",
        [
          Alcotest.test_case "lift equivalent" `Quick test_lift_broadcast_equivalent;
          Alcotest.test_case "channel accounting" `Quick test_unicast_channel_accounting;
          Alcotest.test_case "directed messages" `Quick test_unicast_directed_messages;
          Alcotest.test_case "committee recovers" `Quick test_unicast_committee_recovers;
          Alcotest.test_case "committee null" `Quick test_unicast_committee_null;
        ] );
      ( "framework",
        [
          Alcotest.test_case "triangle inequality" `Slow test_framework_triangle_inequality;
          Alcotest.test_case "index sampler fixed" `Quick test_framework_index_sampler_fixed;
          Alcotest.test_case "mismatch" `Quick test_framework_mismatch;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "exact halving" `Quick test_consistency_exact_halving;
          Alcotest.test_case "constant protocol" `Quick test_consistency_constant_protocol;
        ] );
      ( "sbm",
        [
          Alcotest.test_case "balanced" `Quick test_sbm_balanced;
          Alcotest.test_case "density" `Quick test_sbm_density;
          Alcotest.test_case "alignment" `Quick test_sbm_alignment;
          Alcotest.test_case "recovery" `Quick test_sbm_recovery_strong_signal;
          Alcotest.test_case "zero gap is chance" `Quick test_sbm_gap_zero_is_chance;
        ] );
      ( "triangles",
        [
          Alcotest.test_case "small counts" `Quick test_triangle_count_small;
          Alcotest.test_case "k4 counts" `Quick test_k4_count_small;
          Alcotest.test_case "matches naive" `Quick test_triangle_count_matches_naive;
          Alcotest.test_case "expectation" `Quick test_triangle_expectation_matches;
          Alcotest.test_case "zscore shape" `Quick test_triangle_zscore_shape;
        ] );
      ( "in-model distinguishers",
        [
          Alcotest.test_case "triangle wrappers" `Quick test_triangle_distinguisher_wrappers;
          Alcotest.test_case "degree matches local" `Quick test_degree_protocol_matches_local;
          Alcotest.test_case "sampled clique matches local" `Quick test_sampled_clique_protocol_matches_local;
          Alcotest.test_case "edge-count gap" `Quick test_in_model_gap_large_k;
        ] );
    ]
