(* Property tests for the packed graph kernels (Bcc_kern.Graph), the
   no-alloc Bitvec combinators underneath them and the batched samplers —
   each against its naive oracle, at word-boundary sizes — plus the
   domain safety of the protocols' per-run public state and the artifact
   determinism contract. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Word-boundary lengths: single partial word, full word +/- 1, two
   words +/- 1. *)
let boundary_sizes = [ 1; 63; 64; 65; 127; 128 ]

let with_domains domains f =
  let old = Par.domain_count () in
  Par.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Par.set_domain_count old) f

let random_bitvec g n = Prng.bitvec g n

(* --------------------------------------------------- bitvec combinators *)

let test_popcount_and2_vs_materialized () =
  let g = Prng.create 101 in
  List.iter
    (fun n ->
      for _ = 1 to 50 do
        let a = random_bitvec g n and b = random_bitvec g n in
        check_int
          (Printf.sprintf "and2 n=%d" n)
          (Oracle.popcount_and2 a b)
          (Bitvec.popcount_and2 a b)
      done)
    boundary_sizes

let test_popcount_and3_vs_materialized () =
  let g = Prng.create 102 in
  List.iter
    (fun n ->
      for _ = 1 to 50 do
        let a = random_bitvec g n
        and b = random_bitvec g n
        and c = random_bitvec g n in
        check_int
          (Printf.sprintf "and3 n=%d" n)
          (Oracle.popcount_and3 a b c)
          (Bitvec.popcount_and3 a b c)
      done)
    boundary_sizes

let test_popcount_and2_above_vs_masked () =
  let g = Prng.create 103 in
  List.iter
    (fun n ->
      let a = random_bitvec g n and b = random_bitvec g n in
      (* Every cut point, including the degenerate ones at both ends. *)
      for above = 0 to n - 1 do
        check_int
          (Printf.sprintf "above n=%d j=%d" n above)
          (Oracle.popcount_and2_above a b ~above)
          (Bitvec.popcount_and2_above a b ~above)
      done)
    boundary_sizes

let test_logand_into_vs_allocating () =
  let g = Prng.create 104 in
  List.iter
    (fun n ->
      for _ = 1 to 20 do
        let a = random_bitvec g n and b = random_bitvec g n in
        (* Start from garbage so stale destination bits would show. *)
        let dst = random_bitvec g n in
        Bitvec.logand_into ~dst a b;
        check_bool
          (Printf.sprintf "logand_into n=%d" n)
          true
          (Bitvec.equal dst (Bitvec.logand a b));
        let dst2 = random_bitvec g n in
        Bitvec.logandnot_into ~dst:dst2 a b;
        check_bool
          (Printf.sprintf "logandnot_into n=%d" n)
          true
          (Bitvec.equal dst2 (Bitvec.logand a (Bitvec.lognot b)));
        let dst3 = random_bitvec g n in
        Bitvec.assign dst3 a;
        check_bool (Printf.sprintf "assign n=%d" n) true (Bitvec.equal dst3 a)
      done)
    boundary_sizes

let test_unsafe_set_bit_matches_set () =
  List.iter
    (fun n ->
      let a = Bitvec.create n and b = Bitvec.create n in
      let g = Prng.create 105 in
      for _ = 1 to 3 * n do
        let i = Prng.int g n in
        Bitvec.set a i true;
        Bitvec.unsafe_set_bit b i
      done;
      check_bool (Printf.sprintf "n=%d" n) true (Bitvec.equal a b))
    boundary_sizes

(* -------------------------------------------------------- graph kernels *)

let core_of graph =
  let rows = Array.init (Digraph.vertex_count graph) (Digraph.out_row graph) in
  (Digraph.bidirectional_core graph, Oracle.bidirectional_core rows)

let core_pair g n = core_of (Planted.sample_rand g n)

(* Planted instances with a small clique, k = max 4 (n/6), beside the
   random ones. *)
let small_plants = [ (63, 10); (64, 10); (96, 16) ]

let planted_core_pair g (n, k) = core_of (fst (Planted.sample_planted g ~n ~k))

let test_bidirectional_core_vs_ref () =
  let g = Prng.create 201 in
  List.iter
    (fun n ->
      let kern, oracle = core_pair g n in
      check_bool
        (Printf.sprintf "core n=%d" n)
        true
        (Array.for_all2 Bitvec.equal kern oracle))
    boundary_sizes;
  List.iter
    (fun (n, k) ->
      let kern, oracle = planted_core_pair g (n, k) in
      check_bool
        (Printf.sprintf "planted core n=%d k=%d" n k)
        true
        (Array.for_all2 Bitvec.equal kern oracle))
    small_plants

let test_core_matches_has_edge_closure () =
  (* The original definition, spelled out: bit j of row i iff i <> j and
     both directed edges are present. *)
  let g = Prng.create 202 in
  let n = 65 in
  let graph = Planted.sample_rand g n in
  let core = Digraph.bidirectional_core graph in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_bool
        (Printf.sprintf "entry %d,%d" i j)
        (i <> j && Digraph.has_edge graph i j && Digraph.has_edge graph j i)
        (Bitvec.get core.(i) j)
    done
  done

let test_counts_vs_ref () =
  let g = Prng.create 203 in
  let check label (kern, oracle) =
    check_int
      (Printf.sprintf "triangles %s" label)
      (Oracle.count_triangles oracle)
      (Bcc_kern.Graph.count_triangles kern);
    check_int
      (Printf.sprintf "k4 %s" label)
      (Oracle.count_k4 oracle)
      (Bcc_kern.Graph.count_k4 kern)
  in
  List.iter (fun n -> check (Printf.sprintf "n=%d" n) (core_pair g n)) boundary_sizes;
  List.iter
    (fun (n, k) ->
      check (Printf.sprintf "planted n=%d k=%d" n k) (planted_core_pair g (n, k)))
    small_plants

let test_counts_on_complete_graph () =
  (* K_n has C(n,3) triangles and C(n,4) K4s — exact closed forms. *)
  List.iter
    (fun n ->
      let graph = Gnp.sample_fast (Prng.create 204) ~n ~p:1.0 in
      let core = Digraph.bidirectional_core graph in
      check_int
        (Printf.sprintf "triangles K%d" n)
        (n * (n - 1) * (n - 2) / 6)
        (Graph_backend.Dense.count_triangles graph);
      check_int
        (Printf.sprintf "k4 K%d" n)
        (n * (n - 1) * (n - 2) * (n - 3) / 24)
        (Bcc_kern.Graph.count_k4 core))
    [ 4; 16; 63; 65 ]

let test_max_clique_vs_ref_random () =
  let g = Prng.create 205 in
  List.iter
    (fun n ->
      let kern, oracle = core_pair g n in
      let everyone = Bitvec.ones n in
      check_bool
        (Printf.sprintf "random n=%d" n)
        true
        (List.equal Int.equal
           (Bcc_kern.Graph.max_clique kern everyone)
           (Oracle.max_clique oracle everyone)))
    boundary_sizes

let test_max_clique_vs_ref_planted () =
  let g = Prng.create 206 in
  List.iter
    (fun (n, k) ->
      let graph, clique = Planted.sample_planted g ~n ~k in
      let core = Digraph.bidirectional_core graph in
      let everyone = Bitvec.ones n in
      let got = Bcc_kern.Graph.max_clique core everyone in
      check_bool
        (Printf.sprintf "planted n=%d k=%d" n k)
        true
        (List.equal Int.equal got (Oracle.max_clique core everyone));
      (* With k well above the ~2 log_2 n natural clique size, the planted
         clique is the maximum. *)
      if k >= 20 then
        check_bool
          (Printf.sprintf "recovers plant n=%d k=%d" n k)
          true
          (List.equal Int.equal got clique))
    ([ (63, 12); (64, 20); (65, 20); (96, 24); (128, 28) ] @ small_plants)

let test_max_clique_of_subset_vs_ref () =
  let g = Prng.create 207 in
  let n = 96 in
  let graph, _ = Planted.sample_planted g ~n ~k:20 in
  let core = Digraph.bidirectional_core graph in
  for trial = 1 to 5 do
    let vs = Prng.subset g ~n ~k:40 in
    let mask = Bitvec.create n in
    Bitvec.set_indices mask vs;
    let restricted = Array.map (fun row -> Bitvec.logand row mask) core in
    check_bool
      (Printf.sprintf "subset trial %d" trial)
      true
      (List.equal Int.equal
         (Clique.max_clique_of_subset graph vs)
         (Oracle.max_clique restricted mask))
  done

(* ------------------------------------------------------------- samplers *)

let test_prng_bitvec_matches_per_bit_decode () =
  (* The batched word writes must reproduce the per-bit decode of the same
     stream: same number of bits64 draws, same vector. *)
  List.iter
    (fun n ->
      let g1 = Prng.create 301 and g2 = Prng.create 301 in
      for _ = 1 to 10 do
        let batched = Prng.bitvec g1 n in
        let expect = Bitvec.create n in
        let full_words = n / 64 in
        for i = 0 to full_words - 1 do
          let w = Prng.bits64 g2 in
          for b = 0 to 63 do
            if Int64.logand (Int64.shift_right_logical w b) 1L = 1L then
              Bitvec.set expect ((i * 64) + b) true
          done
        done;
        if n mod 64 > 0 then begin
          let w = Prng.bits64 g2 in
          for b = 0 to (n mod 64) - 1 do
            if Int64.logand (Int64.shift_right_logical w b) 1L = 1L then
              Bitvec.set expect ((full_words * 64) + b) true
          done
        end;
        check_bool (Printf.sprintf "n=%d" n) true (Bitvec.equal batched expect)
      done;
      (* Both consumed the same number of draws: streams stay in sync. *)
      check_bool
        (Printf.sprintf "stream n=%d" n)
        true
        (Prng.bits64 g1 = Prng.bits64 g2))
    boundary_sizes

let test_install_out_row_matches_set_out_row () =
  let g = Prng.create 302 in
  List.iter
    (fun n ->
      let a = Digraph.create n and b = Digraph.create n in
      for i = 0 to n - 1 do
        let row = random_bitvec g n in
        Digraph.set_out_row a i row;
        (* install takes ownership — hand it a private copy. *)
        Digraph.install_out_row b i (Bitvec.copy row)
      done;
      check_bool (Printf.sprintf "n=%d" n) true (Digraph.equal a b);
      for i = 0 to n - 1 do
        check_bool "diagonal clear" false (Digraph.has_edge b i i)
      done)
    [ 1; 63; 64; 65 ]

let test_sample_fast_properties () =
  let n = 65 in
  List.iter
    (fun p ->
      let graph = Gnp.sample_fast (Prng.create 303) ~n ~p in
      (* Deterministic in the seed. *)
      check_bool "deterministic" true
        (Digraph.equal graph (Gnp.sample_fast (Prng.create 303) ~n ~p));
      let edges = ref 0 in
      for i = 0 to n - 1 do
        check_bool "no diagonal" false (Digraph.has_edge graph i i);
        for j = 0 to n - 1 do
          if i <> j then begin
            check_bool "symmetric"
              (Digraph.has_edge graph i j)
              (Digraph.has_edge graph j i);
            if i < j && Digraph.has_edge graph i j then incr edges
          end
        done
      done;
      if p = 0.0 then check_int "empty" 0 !edges;
      if p = 1.0 then check_int "complete" (n * (n - 1) / 2) !edges)
    [ 0.0; 0.1; 0.5; 1.0 ]

let test_count_common_out_neighbors () =
  let g = Prng.create 304 in
  let n = 96 in
  let graph = Planted.sample_rand g n in
  for _ = 1 to 50 do
    let i = Prng.int g n and j = Prng.int g n in
    check_int "vs materialized"
      (Bitvec.popcount (Digraph.common_out_neighbors graph i j))
      (Digraph.count_common_out_neighbors graph i j)
  done

(* ------------------------------------------------- per-run public state *)

(* One protocol value, run 8 times inside [Par] at 4 domains, gives the
   outputs and transcripts of 8 sequential runs: its public state is made
   per run, so concurrent runs share nothing. *)
let par_matches_sequential proto ~inputs_of =
  let one i =
    let g = Prng.create (500 + i) in
    let inputs = inputs_of g in
    let r = Bcast.run proto ~inputs ~rand:g in
    (r.Bcast.outputs, Transcript.key r.Bcast.transcript)
  in
  let sequential = Array.init 8 one in
  let old = Par.domain_count () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Par.set_domain_count old)
      (fun () ->
        Par.set_domain_count 4;
        Par.map_array one (Array.init 8 Fun.id))
  in
  check_bool "outputs" true (Array.map fst sequential = Array.map fst parallel);
  Alcotest.(check (array string))
    "transcript keys" (Array.map snd sequential) (Array.map snd parallel)

let planted_rows ~n ~k g =
  let graph, _ = Planted.sample_planted g ~n ~k in
  Array.init n (Digraph.out_row graph)

let test_planted_clique_public_state_par () =
  par_matches_sequential
    (Planted_clique_algo.protocol ~n:64 ~k:24)
    ~inputs_of:(planted_rows ~n:64 ~k:24)

let test_sampled_clique_public_state_par () =
  par_matches_sequential
    (Distinguisher_protocols.sampled_clique_protocol ~n:48 ~sample_size:20)
    ~inputs_of:(planted_rows ~n:48 ~k:16)

let test_degree_public_state_par () =
  par_matches_sequential
    (Distinguisher_protocols.degree_protocol ~n:48)
    ~inputs_of:(planted_rows ~n:48 ~k:16)

let test_connectivity_public_state_par () =
  let n = 16 in
  par_matches_sequential
    (Connectivity.protocol (Connectivity.default_config ~n ~seed:5))
    ~inputs_of:(fun g ->
      let graph = Gnp.sample_fast g ~n ~p:0.15 in
      Array.init n (Digraph.out_row graph))

(* ----------------------------------------------------- artifact pinning *)

let artifact_fingerprint f seed =
  Artifact.to_string ~pretty:true (Experiments.artifact ~seed (f ~seed ()))

let test_e12_artifact_identical_across_pools () =
  let f ~seed () = Experiments.e12_planted_clique_algorithm ~seed () in
  let seq = with_domains 1 (fun () -> artifact_fingerprint f 7) in
  let par = with_domains 4 (fun () -> artifact_fingerprint f 7) in
  check_string "e12 artifact" seq par

let test_e17_artifact_identical_across_pools () =
  let f ~seed () = Experiments.e17_triangles ~seed () in
  let seq = with_domains 1 (fun () -> artifact_fingerprint f 7) in
  let par = with_domains 4 (fun () -> artifact_fingerprint f 7) in
  check_string "e17 artifact" seq par

let () =
  Alcotest.run "graph_kern"
    [
      ( "bitvec",
        [
          Alcotest.test_case "popcount_and2 vs materialized" `Quick
            test_popcount_and2_vs_materialized;
          Alcotest.test_case "popcount_and3 vs materialized" `Quick
            test_popcount_and3_vs_materialized;
          Alcotest.test_case "popcount_and2_above all cuts" `Quick
            test_popcount_and2_above_vs_masked;
          Alcotest.test_case "into-combinators vs allocating" `Quick
            test_logand_into_vs_allocating;
          Alcotest.test_case "unsafe_set_bit matches set" `Quick
            test_unsafe_set_bit_matches_set;
        ] );
      ( "graph",
        [
          Alcotest.test_case "bidirectional core vs ref" `Quick
            test_bidirectional_core_vs_ref;
          Alcotest.test_case "core matches has_edge closure" `Quick
            test_core_matches_has_edge_closure;
          Alcotest.test_case "triangle/k4 counts vs ref" `Quick test_counts_vs_ref;
          Alcotest.test_case "counts on complete graph" `Quick
            test_counts_on_complete_graph;
          Alcotest.test_case "max clique vs ref (random)" `Quick
            test_max_clique_vs_ref_random;
          Alcotest.test_case "max clique vs ref (planted)" `Quick
            test_max_clique_vs_ref_planted;
          Alcotest.test_case "max clique of subset vs ref" `Quick
            test_max_clique_of_subset_vs_ref;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "prng bitvec matches per-bit decode" `Quick
            test_prng_bitvec_matches_per_bit_decode;
          Alcotest.test_case "install_out_row matches set_out_row" `Quick
            test_install_out_row_matches_set_out_row;
          Alcotest.test_case "sample_fast properties" `Quick
            test_sample_fast_properties;
          Alcotest.test_case "count_common_out_neighbors" `Quick
            test_count_common_out_neighbors;
        ] );
      ( "public state",
        [
          Alcotest.test_case "planted-clique par = sequential" `Quick
            test_planted_clique_public_state_par;
          Alcotest.test_case "sampled-clique par = sequential" `Quick
            test_sampled_clique_public_state_par;
          Alcotest.test_case "degree-summary par = sequential" `Quick
            test_degree_public_state_par;
          Alcotest.test_case "connectivity par = sequential" `Quick
            test_connectivity_public_state_par;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "e12 identical at 1 and 4 domains" `Quick
            test_e12_artifact_identical_across_pools;
          Alcotest.test_case "e17 identical at 1 and 4 domains" `Quick
            test_e17_artifact_identical_across_pools;
        ] );
    ]
