(* The benchmark harness.  One section per argument:

     tables   every experiment table (the paper has no measured tables of
              its own, see DESIGN.md, so each theorem's prediction is the
              "table" being reproduced)
     micro    each experiment's computational core and the one-sided
              ablations, best-of wall clock (BENCH_micro.json)
     par      the Par pool over domain counts 1/2/4/8 on the hottest
              Monte-Carlo loops, pinning their results (BENCH_par.json)
     kern     GF(2), enumeration and WHT kernels vs their naive oracles
     graph    packed graph kernels vs their naive oracles
     sparse   CSR kernels vs the dense pipeline on the same graph
     prng     Prng.Block fills vs scalar draw loops, and the geometric-skip
              G(n,p) sampler vs the per-pair one
     compare  the regression gate: the four sweeps above in quick mode,
              their speedup ratios diffed against BENCH_baseline.json

   Each sweep is a list of rows, and every row times a naive and a kernel
   implementation of one computation and checks their answers agree
   (BENCH_<section>.json); any disagreement makes the process exit 1.
   Whatever ran is also collected into one BENCH.json envelope.

     dune exec bench/main.exe                     # all but compare
     dune exec bench/main.exe -- kern --quick     # CI-sized rows only
     dune exec bench/main.exe -- compare --update # regenerate the baseline

   Any other section name or flag prints the usage on stderr and exits
   2.  --prof runs any selection under the hierarchical profiler. *)

let banner title =
  Format.printf "=====================================================@.";
  Format.printf " %s@." title;
  Format.printf "=====================================================@."

(* Writes [_artifacts/BENCH_<id>.json] and says so. *)
let write_bench id ~params payload =
  let file = Printf.sprintf "BENCH_%s.json" id in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir file)
    (Artifact.make ~kind:"bench" ~id ~params payload);
  Format.printf "@.artifact written to %s/%s@.@." Artifact.default_dir file

(* Warm once (that run's value is the one returned), then best-of-[reps]
   wall clock in nanoseconds on Prof's monotonic clock. *)
let time_best ~reps f =
  let v = f () in
  let best = ref infinity in
  for _ = 1 to reps do
    let _, seconds = Prof.time f in
    if seconds < !best then best := seconds
  done;
  (v, !best *. 1e9)

(* ------------------------------------------------------------- tables *)

let run_tables () =
  banner "Experiment tables (one per theorem; see EXPERIMENTS.md)";
  let seed = 42 in
  Metrics.set_collecting true;
  let ids = ref [] in
  List.iter
    (fun table ->
      Experiments.print Format.std_formatter table;
      ids := table.Experiments.id :: !ids;
      ignore (Experiments.write_artifact ~seed table))
    (Experiments.all ~seed ());
  Metrics.set_collecting false;
  (* The populated registry rides along with the tables. *)
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "METRICS_tables.json")
    (Metrics.snapshot_artifact ~id:"tables" ~seed ());
  Format.printf "@.artifacts written to %s/@." Artifact.default_dir;
  Format.printf "@.";
  Artifact.Obj
    [
      ("seed", Artifact.Int seed);
      ( "tables",
        Artifact.List (List.rev_map (fun id -> Artifact.String id) !ids) );
    ]

(* ------------------------------------------------------- micro bench *)

let bench name f = (name, fun () -> ignore (f ()))

let micro_rows () =
  let g = Prng.create 99 in
  let f12 = Boolfun.random g 12 in
  let prg_params = { Full_prg.n = 64; k = 24; m = 64 } in
  let secret = Full_prg.sample_secret g prg_params in
  let seed24 = Prng.bitvec g 24 in
  let graph256 = Planted.sample_rand g 256 in
  let turn_proto =
    Turn_model.of_round_protocol ~n:4 ~rounds:1 (fun ~id:_ ~input ~history:_ ->
        Bitvec.popcount input * 2 > 4)
  in
  let e4_input_dist = Progress.enumerate_rand ~n:4 in
  let fr_proto = Full_rank.truncated_protocol ~n:48 ~rounds:4 in
  let fr_inputs =
    let m = Full_rank.sample_uniform ~n:48 g in
    Array.init 48 (Gf2_matrix.row m)
  in
  let pc_graph, _ = Planted.sample_planted g ~n:128 ~k:60 in
  let pc_inputs = Array.init 128 (Digraph.out_row pc_graph) in
  let eq_inputs = Array.make 12 (Prng.bitvec g 16) in
  let eq_proto = Equality.fingerprint_protocol ~m:16 ~repetitions:2 in
  let derand_proto =
    Derandomize.transform { Full_prg.n = 12; k = 12; m = 40 } eq_proto
  in
  [
    (* One row per experiment core. *)
    bench "e1-e2:lemma-1.10-exact" (fun () -> Lemma_verify.lemma_1_10 f12);
    bench "e3:lemma-4.4-restricted"
      (let d = Restriction.random_of_deficit (Prng.create 1) ~n:12 ~t:2.0 in
       fun () -> Lemma_verify.lemma_4_4 d f12);
    bench "e4:exact-transcript-dist" (fun () ->
        Turn_model.exact_transcript_dist turn_proto e4_input_dist);
    bench "e5:degree-distinguisher" (fun () ->
        Distinguishers.max_out_degree.Distinguishers.statistic g graph256);
    bench "e6:lemma-5.2-wht" (fun () -> Lemma_verify.lemma_5_2 f12);
    bench "e7:lemma-7.3-sampled"
      (let f9 = Boolfun.random (Prng.create 2) 9 in
       fun () -> Lemma_verify.lemma_7_3 ~max_secrets:512 (Prng.create 3) f9 ~k:5);
    bench "e8-e9:prg-expand" (fun () -> Full_prg.expand secret seed24);
    bench "e10-e11:full-rank-protocol-run" (fun () ->
        Bcast.run_deterministic fr_proto ~inputs:fr_inputs);
    bench "e12:planted-clique-B1-run" (fun () ->
        let proto = Planted_clique_algo.protocol ~n:128 ~k:60 in
        Bcast.run proto ~inputs:pc_inputs ~rand:(Prng.create 5));
    bench "e13:newman-sampled-run"
      (let s =
         Newman.make_sampled (Prng.create 6)
           (Equality.fingerprint_public_coin ~n:12 ~m:16 ~repetitions:2)
           ~t_count:64
       in
       fun () -> Newman.run_sampled s ~rand:g ~inputs:eq_inputs);
    bench "e14:derandomized-protocol-run" (fun () ->
        Bcast.run derand_proto ~inputs:eq_inputs ~rand:(Prng.create 7));
    bench "e15:consistency-sets"
      (let proto =
         Turn_model.of_round_protocol ~n:3 ~rounds:2
           (fun ~id:_ ~input ~history -> Bitvec.get input (Array.length history / 3))
       in
       let sample g = Array.init 3 (fun _ -> Prng.bitvec g 10) in
       fun () ->
         Consistency.measure proto ~sample ~input_bits:10 ~id:0 ~turns:6 ~trials:5
           (Prng.create 11));
    bench "e16:framework-progress"
      (let d = Framework.toy_prg ~n:5 ~k:4 in
       let proto =
         Turn_model.of_round_protocol ~n:5 ~rounds:1
           (fun ~id:_ ~input ~history:_ -> Bitvec.popcount input * 2 > 5)
       in
       fun () ->
         Framework.progress_sampled d proto ~indices:2 ~samples:500 (Prng.create 12));
    bench "e17:triangle-count-128" (fun () ->
        Graph_backend.Dense.count_triangles pc_graph);
    bench "e18:sbm-recovery"
      (let graph, _ = Sbm.sample (Prng.create 13) ~n:64 ~p_in:0.8 ~p_out:0.2 in
       fun () -> Sbm.degree_profile_recover graph);
    bench "e19:unicast-committee-run"
      (let n = 48 in
       let graph, _ = Planted.sample_planted (Prng.create 14) ~n ~k:20 in
       let inputs = Array.init n (Digraph.out_row graph) in
       fun () ->
         let proto =
           Unicast_clique.protocol ~n ~seed_size:(Unicast_clique.recommended_seed_size n)
         in
         Unicast.run proto ~inputs ~rand:(Prng.create 15));
    (* One-sided ablations; the two-sided ones are sweep rows with an
       equality check (fourier-direct, graph-bk-pivot, prng-gnp-skip). *)
    bench "ablation:transcript-sampled" (fun () ->
        Turn_model.sampled_transcript_dist turn_proto
          ~sample:(Progress.sample_rand_rows ~n:4)
          ~samples:4096 (Prng.create 9));
    bench "ablation:simulator-round-cost"
      (let proto = Equality.deterministic_protocol ~m:16 in
       let inputs = Array.make 64 (Prng.bitvec (Prng.create 10) 16) in
       fun () -> Bcast.run_deterministic proto ~inputs);
    bench "e20:claim-7-exact"
      (let f = Boolfun.random (Prng.create 16) 8 in
       fun () -> Lemma_verify.claim_7 (Prng.create 17) f ~k:4 ~j:1);
    bench "e21-e23:gnp-diameter"
      (let graph = Gnp.sample (Prng.create 18) ~n:128 ~p:0.08 in
       fun () -> Gnp.diameter graph);
    bench "e22:mst-prim-128"
      (let t = Wgraph.random (Prng.create 19) 128 in
       fun () -> Wgraph.mst_weight t);
    bench "e24:agm-sketch-encode"
      (let params = { Agm_sketch.universe = 4096; seed = 20 } in
       let s = Agm_sketch.create params in
       let g = Prng.create 21 in
       for _ = 1 to 64 do
         Agm_sketch.add s (Prng.int g 4096)
       done;
       fun () -> Agm_sketch.to_bitvec s);
    bench "e26:twoparty-log-rank"
      (let eq = Twoparty.equality 6 in
       fun () -> Twoparty.deterministic_lower_bound eq);
    bench "e27:f2-protocol-run"
      (let d = 64 in
       let inputs = Array.init 16 (fun i -> Prng.bitvec (Prng.create (30 + i)) d) in
       let cfg = { F2_moment.d; repetitions = 8; seed = 22 } in
       fun () -> Bcast.run (F2_moment.protocol cfg) ~inputs ~rand:(Prng.create 23));
    bench "e28:toy-prg-exact-distance"
      (let proto =
         Turn_model.of_round_protocol ~n:3 ~rounds:1
           (fun ~id:_ ~input ~history:_ -> Bitvec.get input 3)
       in
       fun () -> Prg_progress.expected_distance_exact proto ~n:3 ~k:3 ~turns:3);
  ]

let micro_reps = 10

let run_micro () =
  banner (Printf.sprintf "Micro-benchmarks (best of %d, monotonic clock)" micro_reps);
  Format.printf "%-45s %14s@." "benchmark" "ns/run";
  Format.printf "%s@." (String.make 60 '-');
  let rows =
    List.map
      (fun (name, f) ->
        let name = "bcclique/" ^ name in
        let (), ns = time_best ~reps:micro_reps f in
        (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
        Format.printf "%-45s %14.1f@." name ns;
        Artifact.Obj
          [ ("name", Artifact.String name); ("ns_per_run", Artifact.Float ns) ])
      (micro_rows ())
  in
  write_bench "micro" ~params:[ ("repetitions", Artifact.Int micro_reps) ]
    (Artifact.List rows);
  Artifact.List rows

(* ------------------------------------------------- domain-count sweep *)

(* Monte-Carlo hot loops that [Par] fans out, each returning a float the
   sweep pins across domain counts (the determinism contract: same value
   at every pool size, only wall-clock moves). *)
let par_workloads =
  [
    ( "e5:distinguisher-advantage",
      fun g ->
        Distinguishers.advantage Distinguishers.max_out_degree ~n:256 ~k:40
          ~calibration:40 ~trials:60 g );
    ( "e9:seed-attack-advantage",
      fun g ->
        Seed_attack.advantage
          ~params:{ Full_prg.n = 48; k = 16; m = 40 }
          ~trials:100 g );
    ( "e10:full-rank-accuracy",
      fun g ->
        Full_rank.accuracy
          (Full_rank.truncated_protocol ~n:48 ~rounds:6)
          ~truth:Gf2_matrix.is_full_rank
          ~sample:(Full_rank.sample_uniform ~n:48)
          ~trials:200 g );
    ( "e3:subset-tree-walks",
      fun g ->
        let d = Restriction.random_of_deficit (Prng.create 7) ~n:14 ~t:2.0 in
        (Subset_tree.simulate g ~d ~k:4 ~trials:3000)
          .Subset_tree.prob_z_exceeds_3t );
  ]

let run_par () =
  banner "Domain-count sweep (Par pool; wall-clock, best of 3)";
  let domain_counts = [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  Format.printf "available cores (recommended domain count): %d@.@." cores;
  Format.printf "%-30s %8s %12s %10s %12s@." "workload" "domains" "ns/run"
    "speedup" "result";
  Format.printf "%s@." (String.make 76 '-');
  let previous = Par.domain_count () in
  let rows =
    Fun.protect
      ~finally:(fun () -> Par.set_domain_count previous)
      (fun () ->
        List.map
          (fun (name, work) ->
            let run () = work (Prng.create 4242) in
            let sweep =
              List.map
                (fun domains ->
                  Par.set_domain_count domains;
                  let value, ns = time_best ~reps:3 run in
                  (domains, ns, value))
                domain_counts
            in
            let t1, v1 =
              match sweep with (_, ns, v) :: _ -> (ns, v) | [] -> assert false
            in
            List.iter
              (fun (domains, ns, value) ->
                if value <> v1 then
                  failwith
                    (Printf.sprintf
                       (* bcc-lint: allow det/float-format — %.17g is exact round-trip precision in a failure diagnostic *)
                       "%s: result drifted at %d domains (%.17g vs %.17g)"
                       name domains value v1);
                (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
                Format.printf "%-30s %8d %12.0f %9.2fx %12.6f@." name domains
                  ns (t1 /. ns) value)
              sweep;
            (name, t1, sweep))
          par_workloads)
  in
  let json =
    Artifact.List
      (List.map
         (fun (name, t1, sweep) ->
           Artifact.Obj
             [
               ("name", Artifact.String name);
               ( "sweep",
                 Artifact.List
                   (List.map
                      (fun (domains, ns, value) ->
                        Artifact.Obj
                          [
                            ("domains", Artifact.Int domains);
                            ("ns_per_run", Artifact.Float ns);
                            ("speedup_vs_1", Artifact.Float (t1 /. ns));
                            ("result", Artifact.Float value);
                          ])
                      sweep) );
             ])
         rows)
  in
  write_bench "par"
    ~params:
      [
        ("available_cores", Artifact.Int cores);
        ( "domain_counts",
          Artifact.List (List.map (fun d -> Artifact.Int d) domain_counts) );
        ("repetitions", Artifact.Int 3);
      ]
    json;
  json

(* --------------------------------------------- kernel-vs-oracle sweeps *)

(* One comparison: [naive] and [kern] compute the same answer two ways,
   and [equal] checks that they did.  [quick] rows also run under
   --quick, the CI-sized subset that [compare] gates; a full run runs
   every row. *)
type row =
  | Row : {
      group : string;
      case : string;
      naive : unit -> 'a;
      kern : unit -> 'b;
      equal : 'a -> 'b -> bool;
      quick : bool;
    }
      -> row

(* A row's inputs, built on first use: a row that --quick skips draws
   nothing, so the quick rows read the same generator stream in both
   modes. *)
let input f =
  let v = lazy (f ()) in
  fun () -> Lazy.force v

(* The pre-kernel Lemma 1.10 measurement, float-op-for-float-op: the same
   counts via per-input oracles, combined in the same order, so the kernel
   path must reproduce it exactly. *)
let naive_lemma_1_10_measured f =
  let n = Boolfun.arity f in
  let size = 1 lsl n in
  let eval = Boolfun.eval_int f in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let all = Oracle.count_true ~n eval in
    let forced = Oracle.count_forced_ones ~n ~mask:(1 lsl i) eval in
    total :=
      !total
      +. Float.abs
           ((float_of_int all /. float_of_int size)
           -. (float_of_int forced /. float_of_int (size lsr 1)))
  done;
  !total /. float_of_int n

(* Packed GF(2), enumeration and WHT kernels against the naive oracles
   they replaced. *)
let kern_rows () =
  let g = Prng.create 2025 in
  List.concat
    [
      (* GF(2) rank: packed forward elimination vs scalar bool elimination. *)
      List.map
        (fun (n, quick) ->
          let inputs =
            input (fun () ->
                let m = Gf2_matrix.random g ~rows:n ~cols:n in
                (m, Array.init n (fun i -> Array.init n (Gf2_matrix.get m i))))
          in
          Row
            {
              group = "gf2-rank";
              case = Printf.sprintf "n=%d" n;
              naive = (fun () -> Oracle.rank_bools (snd (inputs ())));
              kern = (fun () -> Gf2_matrix.rank (fst (inputs ())));
              equal = Int.equal;
              quick;
            })
        [ (48, true); (128, true); (256, false) ];
      (* GF(2) multiply: M4RM vs row-at-a-time xor-accumulate. *)
      List.map
        (fun n ->
          let inputs =
            input (fun () ->
                let a = Gf2_matrix.random g ~rows:n ~cols:n in
                let b = Gf2_matrix.random g ~rows:n ~cols:n in
                (a, b))
          in
          let rows =
            input (fun () ->
                let a, b = inputs () in
                (Array.init n (Gf2_matrix.row a), Array.init n (Gf2_matrix.row b)))
          in
          Row
            {
              group = "gf2-mul";
              case = Printf.sprintf "n=%d" n;
              naive = (fun () -> Oracle.mul_rows (fst (rows ())) (snd (rows ())) ~cols:n);
              kern = (fun () -> Gf2_matrix.mul (fst (inputs ())) (snd (inputs ())));
              equal = (fun rs m -> Gf2_matrix.equal (Gf2_matrix.of_rows rs) m);
              quick = true;
            })
        [ 64; 128; 256 ];
      (* E1/E2 enumeration: packed sub-cube counts vs per-input table probes. *)
      List.map
        (fun (n, quick) ->
          let f = input (fun () -> Boolfun.random g n) in
          Row
            {
              group = "e1-enum";
              case = Printf.sprintf "n=%d" n;
              naive = (fun () -> naive_lemma_1_10_measured (f ()));
              kern = (fun () -> (Lemma_verify.lemma_1_10 (f ())).Lemma_verify.measured);
              equal = Float.equal;
              quick;
            })
        [ (12, true); (16, true); (18, false) ];
      (* WHT: cache-blocked (and >= 2^16, domain-parallel) butterflies vs the
         plain doubling loop.  0/1 inputs keep every intermediate exact, so
         equality is bitwise. *)
      List.map
        (fun logn ->
          let base =
            input (fun () ->
                Array.init (1 lsl logn) (fun _ -> if Prng.bool g then 1.0 else 0.0))
          in
          let on_copy wht () =
            let a = Array.copy (base ()) in
            wht a;
            a
          in
          Row
            {
              group = "wht";
              case = Printf.sprintf "len=2^%d" logn;
              naive = on_copy Oracle.wht_butterfly;
              kern = on_copy Fourier.wht_inplace;
              equal = ( = );
              quick = true;
            })
        [ 14; 16; 18 ];
      (* Full Fourier transform: packed-table fill + in-place float WHT vs
         the old float path (real table + butterfly + scale). *)
      List.map
        (fun (n, quick) ->
          let f = input (fun () -> Boolfun.random g n) in
          Row
            {
              group = "fourier";
              case = Printf.sprintf "n=%d" n;
              naive =
                (fun () ->
                  let a = Fourier.real_table (f ()) in
                  Oracle.wht_butterfly a;
                  let scale = 1.0 /. float_of_int (Array.length a) in
                  Array.map (fun v -> v *. scale) a);
              kern = (fun () -> Fourier.transform (f ()));
              equal = ( = );
              quick;
            })
        [ (12, true); (16, false) ];
      (* The threshold counter behind the distinguisher hit rates. *)
      List.map
        (fun (trials, quick) ->
          let stats = input (fun () -> Array.init trials (fun _ -> Prng.float g)) in
          Row
            {
              group = "count-above";
              case = Printf.sprintf "trials=%d" trials;
              naive = (fun () -> Oracle.count_above (stats ()) ~threshold:0.5);
              kern = (fun () -> Bcc_kern.Enum.count_above (stats ()) ~threshold:0.5);
              equal = Int.equal;
              quick;
            })
        [ (4096, true); (65536, false) ];
      (* Ablation: one O(2^n) sign-weighted sum per coefficient vs the WHT
         (O(4^n) vs O(n 2^n)); 0/1 tables keep both sides bit-equal. *)
      List.map
        (fun (n, quick) ->
          let f = input (fun () -> Boolfun.random (Prng.create 8) n) in
          Row
            {
              group = "fourier-direct";
              case = Printf.sprintf "n=%d" n;
              naive = (fun () -> Array.init (1 lsl n) (Fourier.coefficient (f ())));
              kern = (fun () -> Fourier.transform (f ()));
              equal = ( = );
              quick;
            })
        [ (10, true); (12, false) ];
    ]

(* Packed graph kernels (Bcc_kern.Graph) vs the allocating oracles they
   replaced: the A land A^T core, triangle/K4 counting, and the
   scratch-stack Bron-Kerbosch. *)
let graph_rows () =
  let g = Prng.create 2026 in
  let counts (n, quick) =
    let graph = input (fun () -> Planted.sample_rand g n) in
    let rows = input (fun () -> Array.init n (Digraph.out_row (graph ()))) in
    (* The core of A_rand is G(n, 1/4), the e17 counting regime. *)
    let core = input (fun () -> Digraph.bidirectional_core (graph ())) in
    let case = Printf.sprintf "n=%d" n in
    let count group naive kern =
      Row
        {
          group;
          case;
          naive = (fun () -> naive (core ()));
          kern = (fun () -> kern (core ()));
          equal = Int.equal;
          quick;
        }
    in
    [
      Row
        {
          group = "graph-core";
          case;
          naive = (fun () -> Oracle.bidirectional_core (rows ()));
          kern = (fun () -> Digraph.bidirectional_core (graph ()));
          equal =
            (fun a b -> Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b);
          quick;
        };
      count "graph-tri" Oracle.count_triangles Bcc_kern.Graph.count_triangles;
      count "graph-k4" Oracle.count_k4 Bcc_kern.Graph.count_k4;
    ]
  in
  (* Bron-Kerbosch on planted instances (the e12/e19 regime, k ~ 8 sqrt n
     so the planted clique dominates the core's natural cliques). *)
  let max_clique (n, k, quick) =
    let core =
      input (fun () -> Digraph.bidirectional_core (fst (Planted.sample_planted g ~n ~k)))
    in
    let everyone = Bitvec.ones n in
    Row
      {
        group = "graph-maxclique";
        case = Printf.sprintf "n=%d,k=%d" n k;
        naive = (fun () -> Oracle.max_clique (core ()) everyone);
        kern = (fun () -> Bcc_kern.Graph.max_clique (core ()) everyone);
        equal = List.equal Int.equal;
        quick;
      }
  in
  (* Ablation: Bron-Kerbosch without a pivot, which visits every clique of
     the graph, vs the production pivoting search; both find the maximum
     clique's size. *)
  let bk_pivot =
    let n = 64 and k = 16 in
    let graph = input (fun () -> fst (Planted.sample_planted (Prng.create 24) ~n ~k)) in
    let adj = input (fun () -> Digraph.bidirectional_core (graph ())) in
    Row
      {
        group = "graph-bk-pivot";
        case = Printf.sprintf "n=%d,k=%d" n k;
        naive =
          (fun () ->
            let adj = adj () in
            let best = ref 0 in
            let rec expand r p x =
              if Bitvec.is_zero p && Bitvec.is_zero x then best := max !best r
              else begin
                let p = Bitvec.copy p and x = Bitvec.copy x in
                Bitvec.iter_set
                  (fun v ->
                    expand (r + 1) (Bitvec.logand p adj.(v)) (Bitvec.logand x adj.(v));
                    Bitvec.set p v false;
                    Bitvec.set x v true)
                  (Bitvec.copy p)
              end
            in
            expand 0 (Bitvec.ones n) (Bitvec.create n);
            !best);
        kern = (fun () -> Clique.max_clique (graph ()));
        equal = (fun size clique -> size = List.length clique);
        quick = true;
      }
  in
  List.concat_map counts [ (128, true); (256, true); (512, false) ]
  @ List.map max_clique [ (128, 24, true); (256, 40, true); (512, 64, false) ]
  @ [ bk_pivot ]

(* CSR structural equality, for the cross-representation oracles. *)
let spgraph_equal (a : Bcc_kern.Spgraph.t) (b : Bcc_kern.Spgraph.t) =
  a.Bcc_kern.Spgraph.n = b.Bcc_kern.Spgraph.n
  && a.Bcc_kern.Spgraph.row_ptr = b.Bcc_kern.Spgraph.row_ptr
  && Bcc_kern.Buf.int_to_array a.Bcc_kern.Spgraph.cols
     = Bcc_kern.Buf.int_to_array b.Bcc_kern.Spgraph.cols

(* Does the CSR hold exactly the edges of the packed rows? *)
let spgraph_matches_rows rows (t : Bcc_kern.Spgraph.t) =
  let n = Array.length rows in
  Bcc_kern.Spgraph.vertex_count t = n
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if Bcc_kern.Spgraph.degree t i <> Bitvec.popcount rows.(i) then
           ok := false
         else
           Bcc_kern.Spgraph.iter_row t i (fun j ->
               if not (Bitvec.get rows.(i) j) then ok := false)
       done;
       !ok
     end

(* Sparse CSR kernels vs the dense pipeline on the same graph, the
   cross-representation oracle: structural equality for the sampler and
   core rows, exact counts for the rest.  The n = 4096, p = 0.01 rows are
   the regime the gate pins: CSR merge work scales with the live degrees
   (~ pn per row) while the dense kernels scan n/64 words per edge
   whatever the density. *)
let sparse_rows () =
  List.concat_map
    (fun (n, p, quick) ->
      (* Case labels are artifact bytes: name the density as an exact
         reciprocal rather than float-format p. *)
      let case = Printf.sprintf "n=%d,p=1/%d" n (int_of_float (1.0 /. p)) in
      let dg = input (fun () -> Gnp.sample_fast (Prng.create 31) ~n ~p) in
      let sg = input (fun () -> Sparse.sample_gnp (Prng.create 31) ~n ~p) in
      let dcore = input (fun () -> Digraph.bidirectional_core (dg ())) in
      let score = input (fun () -> Bcc_kern.Spgraph.bidirectional_core (sg ())) in
      let count group dense sparse =
        Row
          {
            group;
            case;
            naive = (fun () -> dense (dcore ()));
            kern = (fun () -> sparse (score ()));
            equal = Int.equal;
            quick;
          }
      in
      [
        Row
          {
            group = "sparse-sample";
            case;
            naive = (fun () -> Gnp.sample_fast (Prng.create 31) ~n ~p);
            kern = (fun () -> Sparse.sample_gnp (Prng.create 31) ~n ~p);
            equal = (fun d s -> spgraph_equal (Sparse.of_digraph d) s);
            quick;
          };
        Row
          {
            group = "sparse-core";
            case;
            naive = (fun () -> Digraph.bidirectional_core (dg ()));
            kern = (fun () -> Bcc_kern.Spgraph.bidirectional_core (sg ()));
            equal = spgraph_matches_rows;
            quick;
          };
        count "sparse-tri" Bcc_kern.Graph.count_triangles Bcc_kern.Spgraph.count_triangles;
        count "sparse-k4" Bcc_kern.Graph.count_k4 Bcc_kern.Spgraph.count_k4;
        Row
          {
            group = "sparse-degree";
            case;
            naive = (fun () -> Graph_backend.Dense.degree_sums (dg ()));
            kern = (fun () -> Sparse.degree_sums (sg ()));
            equal = (fun (a : int array) b -> a = b);
            quick;
          };
      ])
    [ (4096, 0.01, true); (8192, 0.005, false) ]

(* The batched PRNG engine's fills (Prng.Block) against the scalar draw
   loops they replace: block and scalar consume the identical xoshiro256++
   words, so the outputs must agree byte for byte.  Fills are
   memory-streaming, 2-4x over scalar on this class of hardware (see
   docs/PERFORMANCE.md "Batched draws"). *)
let prng_rows () =
  let lens = [ (1 lsl 16, true); (1 lsl 20, false) ] in
  (* Two destination buffers per row: the scalar and block closures must
     not alias or the equality oracle compares a buffer with itself. *)
  let buffers kind len =
    input (fun () ->
        ( Bigarray.Array1.create kind Bigarray.c_layout len,
          Bigarray.Array1.create kind Bigarray.c_layout len ))
  in
  let same len eq a b =
    let ok = ref true in
    for i = 0 to len - 1 do
      if not (eq a.{i} b.{i}) then ok := false
    done;
    !ok
  in
  let fill64 (len, quick) =
    let bufs = buffers Bigarray.int64 len in
    Row
      {
        group = "prng-fill64";
        case = Printf.sprintf "len=%d" len;
        naive =
          (fun () ->
            let a = fst (bufs ()) and g = Prng.create 71 in
            for i = 0 to len - 1 do
              a.{i} <- Prng.bits64 g
            done;
            a);
        kern =
          (fun () ->
            let b = snd (bufs ()) in
            Prng.Block.fill_bits64 (Prng.create 71) b ~pos:0 ~len;
            b);
        equal = same len Int64.equal;
        quick;
      }
  in
  let geom (len, quick) =
    let log1mp = Float.log (1.0 -. 0.01) and cap = float_of_int (1 lsl 30) in
    let bufs = buffers Bigarray.int len in
    Row
      {
        group = "prng-geom";
        case = Printf.sprintf "len=%d,p=1/100" len;
        naive =
          (fun () ->
            let a = fst (bufs ()) and g = Prng.create 73 in
            for i = 0 to len - 1 do
              let skip = Float.log (1.0 -. Prng.float g) /. log1mp in
              a.{i} <- int_of_float (Float.min skip cap)
            done;
            a);
        kern =
          (fun () ->
            let b = snd (bufs ()) in
            Prng.Block.fill_geometric (Prng.create 73) ~log1mp ~cap b ~pos:0 ~len;
            b);
        equal = same len Int.equal;
        quick;
      }
  in
  (* Ablation: one Bernoulli draw per pair vs geometric skipping over the
     non-edges.  The two read different draws from the same stream, so the
     oracle is statistical: both edge counts within 6 sigma of the
     G(n,p) mean. *)
  let gnp_skip =
    let n = 512 and p = 0.02 in
    let pairs = float_of_int (n * (n - 1) / 2) in
    let in_envelope d =
      (* [edge_count] is directed (2m). *)
      let m = float_of_int (Digraph.edge_count d / 2) in
      Float.abs (m -. (pairs *. p)) <= 6.0 *. Float.sqrt (pairs *. p *. (1.0 -. p))
    in
    Row
      {
        group = "prng-gnp-skip";
        case = Printf.sprintf "n=%d,p=1/%d" n (int_of_float (1.0 /. p));
        naive = (fun () -> Gnp.sample (Prng.create 25) ~n ~p);
        kern = (fun () -> Gnp.sample_fast (Prng.create 25) ~n ~p);
        equal = (fun a b -> in_envelope a && in_envelope b);
        quick = true;
      }
  in
  List.map fill64 lens @ List.map geom lens @ [ gnp_skip ]

type sweep = {
  name : string;  (** the section; writes BENCH_<name>.json *)
  title : string;
  reps : int * int;  (** best-of, under --quick and in a full run *)
  rows : unit -> row list;
}

(* Best-of-5 even in quick mode for the kern sweep: its ratios swung ~2x
   run to run at best-of-3 on a single-core VM, which is what the compare
   gate's tolerance has to absorb. *)
let sweeps =
  [
    {
      name = "kern";
      title = "Kernel sweep (Bcc_kern vs naive oracles)";
      reps = (5, 7);
      rows = kern_rows;
    };
    {
      name = "graph";
      title = "Graph kernel sweep (Bcc_kern.Graph vs naive oracles)";
      reps = (3, 5);
      rows = graph_rows;
    };
    {
      name = "sparse";
      title = "Sparse kernel sweep (CSR vs dense pipeline oracles)";
      reps = (3, 5);
      rows = sparse_rows;
    };
    {
      name = "prng";
      title = "Batched PRNG sweep (Prng.Block vs scalar draws)";
      reps = (3, 5);
      rows = prng_rows;
    };
  ]

type timing = {
  group : string;
  case : string;
  naive_ns : float;
  kern_ns : float;
  agree : bool;
}

(* The one runner: times both sides of every selected row, writes
   BENCH_<name>.json, and returns its payload with the timings. *)
let run_sweep ~quick s =
  banner s.title;
  let reps = if quick then fst s.reps else snd s.reps in
  Format.printf "%-16s %-20s %14s %14s %10s@." "group" "case" "naive ns" "kernel ns"
    "speedup";
  Format.printf "%s@." (String.make 80 '-');
  let timings =
    List.filter_map
      (function
        | Row r when quick && not r.quick -> None
        | Row r ->
            let nv, naive_ns = time_best ~reps r.naive in
            let kv, kern_ns = time_best ~reps r.kern in
            let agree = r.equal nv kv in
            (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
            Format.printf "%-16s %-20s %14.0f %14.0f %9.1fx %s@." r.group r.case
              naive_ns kern_ns (naive_ns /. kern_ns)
              (if agree then "ok" else "MISMATCH");
            Some { group = r.group; case = r.case; naive_ns; kern_ns; agree })
      (s.rows ())
  in
  let json =
    Artifact.List
      (List.map
         (fun t ->
           Artifact.Obj
             [
               ("group", Artifact.String t.group);
               ("case", Artifact.String t.case);
               ("naive_ns", Artifact.Float t.naive_ns);
               ("kern_ns", Artifact.Float t.kern_ns);
               ("speedup", Artifact.Float (t.naive_ns /. t.kern_ns));
               ("agree", Artifact.Bool t.agree);
             ])
         timings)
  in
  write_bench s.name
    ~params:[ ("repetitions", Artifact.Int reps); ("quick", Artifact.Bool quick) ]
    json;
  if not (List.for_all (fun t -> t.agree) timings) then
    Format.printf "MISMATCH: see the rows marked MISMATCH above@.@.";
  (json, timings)

(* --------------------------------------------------- regression gate *)

(* The gate compares kernel-vs-oracle *speedup ratios* against the
   committed baseline, not raw nanoseconds: both sides of each ratio are
   measured on the same machine in the same run, so the comparison is
   meaningful on hardware the baseline was never measured on.  A kernel
   whose advantage over its own oracle shrank by more than
   [compare_tolerance] has regressed. *)
let compare_tolerance = 1.5

let baseline_path = "BENCH_baseline.json"

let read_baseline () =
  let doc =
    try Artifact.read_file ~path:baseline_path
    with Sys_error _ ->
      failwith
        (Printf.sprintf "%s not found — run `bench compare --update` and commit it"
           baseline_path)
  in
  match Option.bind (Artifact.member "payload" doc) Artifact.to_list_opt with
  | None -> failwith (Printf.sprintf "%s: malformed payload" baseline_path)
  | Some rows ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Artifact.member "name" row) Artifact.to_string_opt,
              Option.bind (Artifact.member "speedup" row) Artifact.to_float_opt )
          with
          | Some name, Some s -> Some (name, s)
          | _ -> None)
        rows

(* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
let fixed digits = function None -> "-" | Some v -> Printf.sprintf "%.*f" digits v

let run_compare ~update () =
  (* Two independent quick-mode measurements of every sweep.  The gate
     pairs the per-kernel extreme that is robust for its side — the
     stored baseline keeps each kernel's *minimum* observed speedup, a
     fresh run is credited its *maximum* — so a single noisy sample can
     neither trip the tolerance nor inflate the baseline, while a real
     regression (which shifts both samples) still fails. *)
  let measure () =
    let runs = List.map (fun s -> (s.name, run_sweep ~quick:true s)) sweeps in
    let timings = List.concat_map (fun (_, (_, ts)) -> ts) runs in
    ( List.map (fun t -> (t.group ^ "/" ^ t.case, t.naive_ns /. t.kern_ns)) timings,
      Artifact.Obj (List.map (fun (name, (json, _)) -> (name, json)) runs),
      List.for_all (fun t -> t.agree) timings )
  in
  let s1, fresh_payload, ok1 = measure () in
  let s2, _, ok2 = measure () in
  let agree_ok = ok1 && ok2 in
  let combine f =
    List.map
      (fun (name, v1) ->
        match List.assoc_opt name s2 with
        | Some v2 -> (name, f v1 v2)
        | None -> (name, v1))
      s1
  in
  if update then begin
    Artifact.write_file ~path:baseline_path
      (Artifact.make ~kind:"bench" ~id:"baseline"
         ~params:
           [
             ("bench_schema_version", Artifact.Int 1);
             ("tolerance", Artifact.Float compare_tolerance);
           ]
         (Artifact.List
            (List.map
               (fun (name, s) ->
                 Artifact.Obj
                   [ ("name", Artifact.String name); ("speedup", Artifact.Float s) ])
               (combine Float.min))));
    Format.printf "baseline written to %s@." baseline_path;
    (fresh_payload, agree_ok)
  end
  else begin
    let base = read_baseline () in
    let fresh = combine Float.max in
    (* Every baselined row in baseline order, then the fresh rows the
       baseline lacks (kernels added since the last --update): those
       cannot be gated, so they pass as "new" and stay visible. *)
    let verdicts =
      List.map
        (fun (name, b) ->
          match List.assoc_opt name fresh with
          | None -> (name, Some b, None, None, "missing")
          | Some f ->
              (* ratio > 1 means the kernel's edge over its oracle shrank. *)
              let ratio = b /. f in
              (name, Some b, Some f, Some ratio,
               if ratio > compare_tolerance then "regressed" else "ok"))
        base
      @ List.filter_map
          (fun (name, f) ->
            if List.mem_assoc name base then None
            else Some (name, None, Some f, None, "new"))
          fresh
    in
    banner
      (Printf.sprintf "Regression gate vs %s (tolerance %sx)" baseline_path
         (fixed 1 (Some compare_tolerance)));
    Format.printf "%-34s %9s %9s %7s@." "kernel" "base" "fresh" "ratio";
    Format.printf "%s@." (String.make 62 '-');
    List.iter
      (fun (name, b, f, ratio, status) ->
        Format.printf "%-34s %9s %9s %7s %s@." name (fixed 1 b) (fixed 1 f)
          (fixed 2 ratio)
          (if status = "ok" then status else String.uppercase_ascii status))
      verdicts;
    let failures =
      List.filter (fun (_, _, _, _, status) -> status = "missing" || status = "regressed")
        verdicts
    in
    let ok = agree_ok && failures = [] in
    (* Per-row diff artifact for CI upload: every gated row with its
       baseline speedup, fresh speedup, erosion ratio, and verdict. *)
    let float_field key = Option.map (fun v -> (key, Artifact.Float v)) in
    write_bench "compare"
      ~params:
        [ ("tolerance", Artifact.Float compare_tolerance); ("pass", Artifact.Bool ok) ]
      (Artifact.List
         (List.map
            (fun (name, b, f, ratio, status) ->
              Artifact.Obj
                (List.filter_map Fun.id
                   [
                     Some ("name", Artifact.String name);
                     Some
                       ( "base_speedup",
                         Option.fold b ~none:Artifact.Null ~some:(fun v ->
                             Artifact.Float v) );
                     float_field "fresh_speedup" f;
                     float_field "ratio" ratio;
                     Some ("status", Artifact.String status);
                   ]))
            verdicts));
    if failures <> [] then begin
      Format.printf "regressions (name: baseline -> fresh):@.";
      List.iter
        (fun (name, b, f, ratio, status) ->
          if status = "missing" then Format.printf "  %s: missing from fresh run@." name
          else
            Format.printf "  %s: speedup %sx -> %sx (%sx regression)@." name (fixed 1 b)
              (fixed 1 f) (fixed 2 ratio))
        failures;
      Format.printf "@."
    end;
    (fresh_payload, ok)
  end

(* ----------------------------------------------------------------- main *)

(* Every section, in the order [all] runs them; each returns its BENCH.json
   payload and whether its checks held.  [compare] re-runs the sweeps and
   is not part of [all]. *)
let sections =
  [
    ("tables", fun ~quick:_ -> (run_tables (), true));
    ("micro", fun ~quick:_ -> (run_micro (), true));
    ("par", fun ~quick:_ -> (run_par (), true));
  ]
  @ List.map
      (fun s ->
        ( s.name,
          fun ~quick ->
            let json, timings = run_sweep ~quick s in
            (json, List.for_all (fun t -> t.agree) timings) ))
      sweeps

let flags = [ "--quick"; "--prof"; "--update" ]

let usage () =
  prerr_string
    ("usage: main.exe [SECTION] [--quick] [--prof] [--update]\n  SECTION: all (default), "
    ^ String.concat ", " (List.map fst sections)
    ^ ", compare\n\
      \  --quick   CI-sized rows only\n\
      \  --prof    run under the hierarchical profiler (PROF_bench.json)\n\
      \  --update  with compare: rewrite BENCH_baseline.json\n");
  exit 2

let () =
  (* A malformed BCC_DOMAINS is a usage error like an unknown flag: one
     stderr line and exit 2 before any section runs. *)
  (match Par.env_domains () with
  | _ -> ()
  | exception Invalid_argument msg ->
      prerr_endline ("main.exe: " ^ msg);
      exit 2);
  let args = List.tl (Array.to_list Sys.argv) in
  let named, rest = List.partition (fun a -> List.mem a flags) args in
  let quick = List.mem "--quick" named in
  let results =
    match rest with
    | [] | [ "all" ] -> fun () -> List.map (fun (name, run) -> (name, run ~quick)) sections
    | [ "compare" ] ->
        fun () -> [ ("compare", run_compare ~update:(List.mem "--update" named) ()) ]
    | [ s ] when List.mem_assoc s sections ->
        fun () -> [ (s, (List.assoc s sections) ~quick) ]
    | _ -> usage ()
  in
  (* --prof: run the selected sections under the hierarchical profiler and
     write PROF_bench.json / PROF_bench.trace.json alongside BENCH.json. *)
  let prof = List.mem "--prof" named in
  if prof then Prof.start ();
  let results = results () in
  (* One stable envelope over whatever ran, for cross-commit tracking. *)
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH.json")
    (Artifact.make ~kind:"bench" ~id:"all"
       ~params:[ ("bench_schema_version", Artifact.Int 1) ]
       (Artifact.Obj (List.map (fun (name, (payload, _)) -> (name, payload)) results)));
  Format.printf "consolidated envelope written to %s/BENCH.json@."
    Artifact.default_dir;
  if prof then begin
    Prof.stop ();
    let r = Prof.report () in
    Prof.pp_report Format.std_formatter r;
    Artifact.write_file
      ~path:(Filename.concat Artifact.default_dir "PROF_bench.json")
      (Prof.to_artifact ~id:"bench" r);
    Artifact.write_text
      ~path:(Filename.concat Artifact.default_dir "PROF_bench.trace.json")
      (Prof.to_perfetto () ^ "\n");
    Format.printf "profile written to %s/PROF_bench.json (+ .trace.json)@."
      Artifact.default_dir
  end;
  Format.printf "done.@.";
  if not (List.for_all (fun (_, (_, ok)) -> ok) results) then exit 1
