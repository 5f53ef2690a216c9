(* The battery, written once over any graph backend: the dense API below
   is its [Graph_backend.Dense] instance, and the sparse-regime
   experiments instantiate it with [Graph_backend.Sparse_backend] and
   the CSR samplers. *)
module Generic (B : Graph_backend.S) = struct
  type t = {
    name : string;
    rounds : int;
    statistic : Prng.t -> B.t -> float;
  }

  let out_degrees g =
    Array.init (B.vertex_count g) (fun i -> float_of_int (B.out_degree g i))

  let max_out_degree =
    {
      name = "max-out-degree";
      rounds = 1;
      statistic = (fun _ g -> Array.fold_left Float.max 0.0 (out_degrees g));
    }

  let total_edges =
    {
      name = "total-edges";
      rounds = 1;
      statistic = (fun _ g -> Array.fold_left ( +. ) 0.0 (out_degrees g));
    }

  let degree_variance =
    {
      name = "degree-variance";
      rounds = 1;
      statistic = (fun _ g -> Stats.variance (out_degrees g));
    }

  let triangle_count =
    {
      name = "triangle-count";
      rounds = 65;
      (* n/4-ish BCAST(log n) rounds to ship each row's relevant quarter at
         the n=256 default; recorded as the n=256 figure. *)
      statistic = (fun _ g -> float_of_int (B.count_triangles g));
    }

  let k4_count =
    {
      name = "k4-count";
      rounds = 65;
      statistic = (fun _ g -> float_of_int (B.count_k4 g));
    }

  let common_neighbors ~pairs =
    {
      name = Printf.sprintf "common-neighbors(pairs=%d)" pairs;
      rounds = max 1 ((2 * pairs) / 64) + 1;
      statistic =
        (fun coins g ->
          let n = B.vertex_count g in
          let best = ref 0 in
          for _ = 1 to pairs do
            let i = Prng.int coins n in
            let j = Prng.int coins n in
            if i <> j && B.has_edge g i j && B.has_edge g j i then begin
              let c = B.count_common_out_neighbors g i j in
              if c > !best then best := c
            end
          done;
          float_of_int !best);
    }

  (* The calibrate/planted/rand protocol.  Trials fan out across
     domains: each trial draws from its own [Prng.split] child (sample
     first, then the statistic's public coins), so the result is the
     same whatever the domain count.  [g] itself is never advanced —
     branches 0/1/2 keep the three stages on disjoint streams. *)
  let advantage d ~sample_rand ~sample_planted ~calibration ~trials g =
    Prof.span ("advantage:" ^ d.name) (fun () ->
        let calib_stats =
          Prof.span "calibrate" (fun () ->
              Par.map_trials (Prng.split g 0) ~trials:calibration (fun ~trial:_ gt ->
                  let graph = sample_rand gt in
                  d.statistic gt graph))
        in
        let q = 1.0 -. (1.0 /. Float.sqrt (float_of_int (max 2 calibration))) in
        let threshold = Stats.quantile calib_stats q in
        let hit_rate phase branch sample_graph =
          Prof.span phase (fun () ->
              let stats =
                Par.map_trials branch ~trials (fun ~trial:_ gt ->
                    let graph = sample_graph gt in
                    d.statistic gt graph)
              in
              let hits = Bcc_kern.Enum.count_above stats ~threshold in
              float_of_int hits /. float_of_int trials)
        in
        let p_planted = hit_rate "planted" (Prng.split g 1) sample_planted in
        let p_rand = hit_rate "rand" (Prng.split g 2) sample_rand in
        p_planted -. p_rand)
end

include Generic (Graph_backend.Dense)

let sampled_subgraph_clique ~sample_size =
  {
    name = Printf.sprintf "sampled-clique(s=%d)" sample_size;
    (* One round to agree on the sample, then each sampled vertex's
       adjacency into the sample is broadcast: at most [sample_size + 1]
       BCAST(log n) rounds whenever [n >= sample_size]. *)
    rounds = sample_size + 1;
    statistic =
      (fun coins g ->
        let n = Digraph.vertex_count g in
        let s = min sample_size n in
        let sample = Prng.subset coins ~n ~k:s in
        float_of_int (List.length (Clique.max_clique_of_subset g sample)));
  }

let advantage d ~n ~k ~calibration ~trials g =
  advantage d
    ~sample_rand:(fun gt -> Planted.sample_rand gt n)
    ~sample_planted:(fun gt -> fst (Planted.sample_planted gt ~n ~k))
    ~calibration ~trials g
