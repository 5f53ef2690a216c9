(* Tests for directed graphs, planted clique distributions, and clique
   algorithms. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* --- Digraph --- *)

let test_empty_graph () =
  let g = Digraph.create 5 in
  check_int "vertices" 5 (Digraph.vertex_count g);
  check_int "edges" 0 (Digraph.edge_count g);
  check_bool "no edge" false (Digraph.has_edge g 0 1)

let test_add_remove_edge () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 2;
  check_bool "directed" true (Digraph.has_edge g 0 2);
  check_bool "not reverse" false (Digraph.has_edge g 2 0);
  check_int "edge count" 1 (Digraph.edge_count g);
  Digraph.remove_edge g 0 2;
  check_int "removed" 0 (Digraph.edge_count g)

let test_no_self_loops () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 1 1;
  check_bool "self loop ignored" false (Digraph.has_edge g 1 1);
  check_int "edges" 0 (Digraph.edge_count g);
  (* set_out_row clears the diagonal bit too. *)
  Digraph.set_out_row g 1 (Bitvec.of_string "111");
  check_bool "diagonal cleared" false (Digraph.has_edge g 1 1);
  check_int "two edges" 2 (Digraph.edge_count g)

let test_degrees () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 3 0;
  check_int "out degree" 2 (Digraph.out_degree g 0);
  check_int "in degree" 1 (Digraph.in_degree g 0);
  check_int "in degree 1" 1 (Digraph.in_degree g 1)

let test_matrix_roundtrip () =
  let g = Prng.create 1 in
  let graph = Planted.sample_rand g 8 in
  let back = Digraph.of_matrix (Digraph.to_matrix graph) in
  check_bool "roundtrip" true (Digraph.equal graph back)

let test_common_out_neighbors () =
  let g = Digraph.create 5 in
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 0 3;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 1 4;
  check_ints "common" [ 3 ] (Bitvec.indices_set (Digraph.common_out_neighbors g 0 1))

let test_bidirectional_clique_predicate () =
  let g = Digraph.create 4 in
  List.iter
    (fun (i, j) ->
      Digraph.add_edge g i j;
      Digraph.add_edge g j i)
    [ (0, 1); (0, 2); (1, 2) ];
  check_bool "clique 012" true (Digraph.is_bidirectional_clique g [ 0; 1; 2 ]);
  check_bool "not with 3" false (Digraph.is_bidirectional_clique g [ 0; 1; 3 ]);
  check_bool "singleton" true (Digraph.is_bidirectional_clique g [ 2 ]);
  check_bool "empty" true (Digraph.is_bidirectional_clique g []);
  Digraph.remove_edge g 1 0;
  check_bool "one direction missing" false (Digraph.is_bidirectional_clique g [ 0; 1; 2 ])

(* --- Planted --- *)

let test_sample_rand_no_diag () =
  let g = Prng.create 2 in
  let graph = Planted.sample_rand g 10 in
  for i = 0 to 9 do
    check_bool "no diagonal" false (Digraph.has_edge graph i i)
  done

let test_sample_rand_density () =
  let g = Prng.create 3 in
  let n = 64 in
  let graph = Planted.sample_rand g n in
  let edges = Digraph.edge_count graph in
  let expected = float_of_int (n * (n - 1)) /. 2.0 in
  check_bool "half density" true
    (Float.abs (float_of_int edges -. expected) < 4.0 *. Float.sqrt expected)

(* --- Gnp: geometric-skip sampler vs the per-pair one --- *)

let test_gnp_fast_structure () =
  let g = Prng.create 11 in
  let n = 20 in
  let graph = Gnp.sample_fast (Prng.split g 0) ~n ~p:0.3 in
  for i = 0 to n - 1 do
    check_bool "no self loop" false (Digraph.has_edge graph i i);
    for j = 0 to n - 1 do
      if i <> j then
        check_bool "symmetric" (Digraph.has_edge graph i j)
          (Digraph.has_edge graph j i)
    done
  done;
  check_int "p=0 empty" 0
    (Digraph.edge_count (Gnp.sample_fast (Prng.split g 1) ~n ~p:0.0));
  check_int "p=1 complete" (n * (n - 1))
    (Digraph.edge_count (Gnp.sample_fast (Prng.split g 2) ~n ~p:1.0))

let test_gnp_fast_edge_count_distribution () =
  (* The skip sampler must match [Gnp.sample]'s Binomial(n(n-1)/2, p)
     edge-count distribution: compare empirical mean and variance of the
     unordered edge count over [trials] graphs from each sampler. *)
  let n = 48 and p = 0.15 and trials = 300 in
  let pairs = n * (n - 1) / 2 in
  let counts sampler seed =
    let g = Prng.create seed in
    Array.init trials (fun t ->
        float_of_int (Digraph.edge_count (sampler (Prng.split g t) ~n ~p)) /. 2.0)
  in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int trials in
  let variance a =
    let m = mean a in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a
    /. float_of_int (trials - 1)
  in
  let slow = counts Gnp.sample 201 and fast = counts Gnp.sample_fast 202 in
  let expected_mean = float_of_int pairs *. p in
  let expected_var = float_of_int pairs *. p *. (1.0 -. p) in
  (* Mean of [trials] graphs has std [sqrt (var / trials)] ~ 0.7 edges;
     a 5-sigma tolerance keeps the fixed-seed test far from the edge. *)
  let tol = 5.0 *. Float.sqrt (expected_var /. float_of_int trials) in
  check_bool "slow mean" true (Float.abs (mean slow -. expected_mean) < tol);
  check_bool "fast mean" true (Float.abs (mean fast -. expected_mean) < tol);
  check_bool "means agree" true (Float.abs (mean fast -. mean slow) < 2.0 *. tol);
  let ratio = variance fast /. expected_var in
  check_bool "fast variance is binomial" true (ratio > 0.7 && ratio < 1.4)

let test_planted_clique_present () =
  let g = Prng.create 4 in
  for trial = 1 to 20 do
    let graph, c = Planted.sample_planted (Prng.split g trial) ~n:30 ~k:6 in
    check_int "clique size" 6 (List.length c);
    check_bool "planted set is a clique" true (Digraph.is_bidirectional_clique graph c)
  done

let test_planted_at_fixed () =
  let g = Prng.create 5 in
  let c = [ 1; 4; 7 ] in
  let graph = Planted.sample_planted_at g 10 c in
  check_bool "clique at C" true (Digraph.is_bidirectional_clique graph c)

let test_instance_balance () =
  let g = Prng.create 6 in
  let planted = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    if Planted.is_planted (Planted.sample_instance g ~n:8 ~k:3) then incr planted
  done;
  let rate = float_of_int !planted /. float_of_int trials in
  check_bool "about half planted" true (Float.abs (rate -. 0.5) < 0.05)

let test_interesting_k_range () =
  let lo, hi = Planted.interesting_k_range 256 in
  check_int "lo = log n" 8 lo;
  check_int "hi = sqrt n" 16 hi

(* --- Clique --- *)

let triangle_plus_isolated () =
  let g = Digraph.create 5 in
  List.iter
    (fun (i, j) ->
      Digraph.add_edge g i j;
      Digraph.add_edge g j i)
    [ (0, 1); (0, 2); (1, 2); (3, 4) ];
  g

let test_max_clique_triangle () =
  let g = triangle_plus_isolated () in
  check_ints "finds the triangle" [ 0; 1; 2 ] (Clique.max_clique g)

let test_max_clique_respects_direction () =
  (* A "clique" with one direction missing is not found. *)
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 2;
  (* 2 -> 0 and 2 -> 1 missing *)
  check_int "only the pair" 2 (List.length (Clique.max_clique g))

let test_max_clique_of_subset () =
  let g = triangle_plus_isolated () in
  check_ints "within subset" [ 0; 1 ] (Clique.max_clique_of_subset g [ 0; 1; 3 ]);
  check_ints "pair subset" [ 3; 4 ] (Clique.max_clique_of_subset g [ 3; 4 ])

let test_max_clique_recovers_planted () =
  let g = Prng.create 7 in
  for trial = 1 to 5 do
    let graph, c = Planted.sample_planted (Prng.split g trial) ~n:40 ~k:12 in
    let found = Clique.max_clique graph in
    check_bool "max clique contains planted" true
      (List.for_all (fun v -> List.mem v found) c)
  done

let test_greedy_clique_is_clique () =
  let g = Prng.create 8 in
  for trial = 1 to 10 do
    let gt = Prng.split g trial in
    let graph = Planted.sample_rand gt 30 in
    let c = Clique.greedy_clique gt graph in
    check_bool "greedy output is a clique" true (Digraph.is_bidirectional_clique graph c);
    check_bool "nonempty" true (List.length c >= 1)
  done

module Dense_recover = Clique.Recover (Graph_backend.Dense)

let test_extend_by_majority () =
  let g = Prng.create 9 in
  let graph, c = Planted.sample_planted g ~n:60 ~k:20 in
  (* Use half the clique as the core; extension should recover all of C. *)
  let core = List.filteri (fun i _ -> i < 10) c in
  let extended = Dense_recover.extend_by_majority graph ~core ~threshold:0.9 in
  check_bool "recovers the planted set" true (List.for_all (fun v -> List.mem v extended) c)

let test_extend_empty_core () =
  let graph = Digraph.create 5 in
  check_ints "empty core" [] (Dense_recover.extend_by_majority graph ~core:[] ~threshold:0.9)

let test_top_degree () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 0 3;
  Digraph.add_edge g 1 0;
  check_ints "highest degree first" [ 0 ] (Dense_recover.top_degree_vertices g 1);
  check_int "asks more than n" 4 (List.length (Dense_recover.top_degree_vertices g 9))

let test_top_degree_finds_large_planted () =
  (* The classical k >> sqrt(n) regime: top-k degrees recover the clique. *)
  let g = Prng.create 10 in
  let n = 100 and k = 45 in
  let graph, c = Planted.sample_planted g ~n ~k in
  let top = Dense_recover.top_degree_vertices graph k in
  let recovered = List.filter (fun v -> List.mem v top) c in
  check_bool "most of the clique among top degrees" true
    (List.length recovered > (k * 3 / 4))

let test_log_clique_bound_vs_random () =
  (* Random graphs have cliques of size about 2 log2 n, not more. *)
  let g = Prng.create 11 in
  let n = 64 in
  let graph = Planted.sample_rand g n in
  let c = Clique.max_clique graph in
  check_bool "max clique below the log bound + slack" true
    (List.length c <= Clique.log_clique_size_bound n + 2)

(* --- qcheck --- *)

let prop_max_clique_is_clique =
  QCheck.Test.make ~name:"max_clique returns a clique" ~count:40 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let graph = Planted.sample_rand g 16 in
      Digraph.is_bidirectional_clique graph (Clique.max_clique graph))

let prop_max_clique_geq_greedy =
  QCheck.Test.make ~name:"max clique >= greedy clique" ~count:40 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let graph = Planted.sample_rand g 14 in
      List.length (Clique.max_clique graph) >= List.length (Clique.greedy_clique g graph))

let prop_bidirectional_core_symmetric =
  QCheck.Test.make ~name:"bidirectional core is symmetric" ~count:40 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let graph = Planted.sample_rand g 12 in
      let core = Digraph.bidirectional_core graph in
      let ok = ref true in
      for i = 0 to 11 do
        for j = 0 to 11 do
          if Bitvec.get core.(i) j <> Bitvec.get core.(j) i then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "empty" `Quick test_empty_graph;
          Alcotest.test_case "add/remove edge" `Quick test_add_remove_edge;
          Alcotest.test_case "no self loops" `Quick test_no_self_loops;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "matrix roundtrip" `Quick test_matrix_roundtrip;
          Alcotest.test_case "common out-neighbors" `Quick test_common_out_neighbors;
          Alcotest.test_case "clique predicate" `Quick test_bidirectional_clique_predicate;
        ] );
      ( "gnp",
        [
          Alcotest.test_case "fast sampler structure" `Quick test_gnp_fast_structure;
          Alcotest.test_case "fast sampler edge-count distribution" `Quick
            test_gnp_fast_edge_count_distribution;
        ] );
      ( "planted",
        [
          Alcotest.test_case "no diagonal" `Quick test_sample_rand_no_diag;
          Alcotest.test_case "density" `Quick test_sample_rand_density;
          Alcotest.test_case "planted clique present" `Quick test_planted_clique_present;
          Alcotest.test_case "planted at fixed set" `Quick test_planted_at_fixed;
          Alcotest.test_case "instance balance" `Quick test_instance_balance;
          Alcotest.test_case "interesting k range" `Quick test_interesting_k_range;
        ] );
      ( "clique",
        [
          Alcotest.test_case "triangle" `Quick test_max_clique_triangle;
          Alcotest.test_case "respects direction" `Quick test_max_clique_respects_direction;
          Alcotest.test_case "subset search" `Quick test_max_clique_of_subset;
          Alcotest.test_case "recovers planted" `Quick test_max_clique_recovers_planted;
          Alcotest.test_case "greedy is clique" `Quick test_greedy_clique_is_clique;
          Alcotest.test_case "extend by majority" `Quick test_extend_by_majority;
          Alcotest.test_case "extend empty core" `Quick test_extend_empty_core;
          Alcotest.test_case "top degree" `Quick test_top_degree;
          Alcotest.test_case "top degree on large k" `Quick test_top_degree_finds_large_planted;
          Alcotest.test_case "random graph clique size" `Quick test_log_clique_bound_vs_random;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_max_clique_is_clique;
            prop_max_clique_geq_greedy;
            prop_bidirectional_core_symmetric;
          ] );
    ]
