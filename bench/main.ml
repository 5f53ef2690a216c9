(* The benchmark harness.

   Part 1 regenerates every experiment table E1-E14 (the paper has no
   measured tables/figures of its own — see DESIGN.md — so each theorem's
   prediction is the "table" being reproduced).

   Part 2 runs Bechamel micro-benchmarks: one Test.make per experiment's
   computational core, plus the ablations DESIGN.md calls out (WHT vs naive
   Fourier, bit-packed vs naive rank, exact vs sampled transcript
   distributions, simulator round cost).

   Part 3 sweeps the Par pool over domain counts 1/2/4/8 on the hottest
   Monte-Carlo loops, pinning the results (which must not move) and
   recording wall-clock per domain count (BENCH_par.json).

   Part 4 sweeps the Bcc_kern kernels against their naive Ref oracles
   (BENCH_kern.json), checking agreement in-run: any kernel/oracle
   mismatch makes the process exit nonzero.

   Part 5 does the same for the packed graph kernels — A land A^T core,
   triangle/K4 counting, scratch-stack Bron-Kerbosch (BENCH_graph.json).

   Part 6 sweeps the CSR sparse kernels (Bcc_kern.Spgraph / Sparse)
   against the dense pipeline on the same sampled graph — the
   cross-representation oracle (BENCH_sparse.json): sampler, core,
   triangle/K4 counts, degree sums, with in-run agreement required.

   Part 6b sweeps the batched PRNG engine (BENCH_prng.json): the
   Prng.Block fills against the scalar draw loops they replace, and the
   sharded G(n,p) sampler against the block sampler.  The fill rows are
   exact-stream oracles, the sharded row a 6-sigma edge-count envelope.

   Part 7 ("compare") is the regression gate: it re-measures parts 4-6b
   in quick mode and diffs the kernel-vs-oracle speedup ratios against
   the committed BENCH_baseline.json, failing on any kernel whose edge
   over its own oracle shrank by more than 1.5x.

   Whatever ran is also consolidated into one versioned BENCH.json
   envelope (params carry bench_schema_version; payload has one section
   per part).

     dune exec bench/main.exe                     # everything (also: all)
     dune exec bench/main.exe -- tables           # only the experiment tables
     dune exec bench/main.exe -- micro            # only the micro-benchmarks
     dune exec bench/main.exe -- par              # only the domain-count sweep
     dune exec bench/main.exe -- kern             # only the kernel-vs-oracle sweep
     dune exec bench/main.exe -- kern --quick     # smaller sizes (CI smoke)
     dune exec bench/main.exe -- graph            # only the graph-kernel sweep
     dune exec bench/main.exe -- sparse           # only the sparse-vs-dense sweep
     dune exec bench/main.exe -- prng             # only the batched-draw sweep
     dune exec bench/main.exe -- compare          # regression gate vs baseline
     dune exec bench/main.exe -- compare --update # regenerate the baseline

   Any other section name or flag prints this usage on stderr and exits
   2.  --prof runs any selection under the hierarchical profiler.
*)

open Bechamel
open Toolkit

(* ------------------------------------------------------------- tables *)

let run_tables () =
  Format.printf "=====================================================@.";
  Format.printf " Experiment tables (one per theorem; see EXPERIMENTS.md)@.";
  Format.printf "=====================================================@.";
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

(* Naive O(4^n) Fourier transform, the ablation baseline for the WHT. *)
let naive_transform f =
  let n = Boolfun.arity f in
  Array.init (1 lsl n) (fun s -> Fourier.coefficient f s)

(* Naive rank over bool matrices, the ablation baseline for the
   bit-packed Gaussian elimination. *)
let naive_rank rows cols get =
  let work = Array.init rows (fun i -> Array.init cols (fun j -> get i j)) in
  let rank = ref 0 in
  let col = ref 0 in
  while !rank < rows && !col < cols do
    let pivot = ref (-1) in
    (try
       for i = !rank to rows - 1 do
         if work.(i).(!col) then begin
           pivot := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !pivot >= 0 then begin
      let tmp = work.(!rank) in
      work.(!rank) <- work.(!pivot);
      work.(!pivot) <- tmp;
      for i = 0 to rows - 1 do
        if i <> !rank && work.(i).(!col) then
          for j = 0 to cols - 1 do
            work.(i).(j) <- work.(i).(j) <> work.(!rank).(j)
          done
      done;
      incr rank
    end;
    incr col
  done;
  !rank

let micro_tests () =
  let g = Prng.create 99 in
  let f12 = Boolfun.random g 12 in
  let mat128 = Gf2_matrix.random g ~rows:128 ~cols:128 in
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
  Test.make_grouped ~name:"bcclique" ~fmt:"%s/%s"
    [
      (* One Test.make per experiment core. *)
      Test.make ~name:"e1-e2:lemma-1.10-exact"
        (Staged.stage (fun () -> Lemma_verify.lemma_1_10 f12));
      Test.make ~name:"e3:lemma-4.4-restricted"
        (Staged.stage
           (let d = Restriction.random_of_deficit (Prng.create 1) ~n:12 ~t:2.0 in
            fun () -> Lemma_verify.lemma_4_4 d f12));
      Test.make ~name:"e4:exact-transcript-dist"
        (Staged.stage (fun () ->
             Turn_model.exact_transcript_dist turn_proto e4_input_dist));
      Test.make ~name:"e5:degree-distinguisher"
        (Staged.stage (fun () ->
             Distinguishers.max_out_degree.Distinguishers.statistic g graph256));
      Test.make ~name:"e6:lemma-5.2-wht"
        (Staged.stage (fun () -> Lemma_verify.lemma_5_2 f12));
      Test.make ~name:"e7:lemma-7.3-sampled"
        (Staged.stage
           (let f9 = Boolfun.random (Prng.create 2) 9 in
            fun () -> Lemma_verify.lemma_7_3 ~max_secrets:512 (Prng.create 3) f9 ~k:5));
      Test.make ~name:"e8-e9:prg-expand"
        (Staged.stage (fun () -> Full_prg.expand secret seed24));
      Test.make ~name:"e10-e11:full-rank-protocol-run"
        (Staged.stage (fun () -> Bcast.run_deterministic fr_proto ~inputs:fr_inputs));
      Test.make ~name:"e12:planted-clique-B1-run"
        (Staged.stage (fun () ->
             let proto = Planted_clique_algo.protocol ~n:128 ~k:60 in
             Bcast.run proto ~inputs:pc_inputs ~rand:(Prng.create 5)));
      Test.make ~name:"e13:newman-sampled-run"
        (Staged.stage
           (let s =
              Newman.make_sampled (Prng.create 6)
                (Equality.fingerprint_public_coin ~n:12 ~m:16 ~repetitions:2)
                ~t_count:64
            in
            fun () -> Newman.run_sampled s ~rand:g ~inputs:eq_inputs));
      Test.make ~name:"e14:derandomized-protocol-run"
        (Staged.stage (fun () ->
             Bcast.run derand_proto ~inputs:eq_inputs ~rand:(Prng.create 7)));
      Test.make ~name:"e15:consistency-sets"
        (Staged.stage
           (let proto =
              Turn_model.of_round_protocol ~n:3 ~rounds:2
                (fun ~id:_ ~input ~history -> Bitvec.get input (Array.length history / 3))
            in
            let sample g = Array.init 3 (fun _ -> Prng.bitvec g 10) in
            fun () ->
              Consistency.measure proto ~sample ~input_bits:10 ~id:0 ~turns:6 ~trials:5
                (Prng.create 11)));
      Test.make ~name:"e16:framework-progress"
        (Staged.stage
           (let d = Framework.toy_prg ~n:5 ~k:4 in
            let proto =
              Turn_model.of_round_protocol ~n:5 ~rounds:1
                (fun ~id:_ ~input ~history:_ -> Bitvec.popcount input * 2 > 5)
            in
            fun () -> Framework.progress_sampled d proto ~indices:2 ~samples:500
                (Prng.create 12)));
      Test.make ~name:"e17:triangle-count-128"
        (Staged.stage (fun () -> Triangles.count pc_graph));
      Test.make ~name:"e18:sbm-recovery"
        (Staged.stage
           (let graph, _ = Sbm.sample (Prng.create 13) ~n:64 ~p_in:0.8 ~p_out:0.2 in
            fun () -> Sbm.degree_profile_recover graph));
      Test.make ~name:"e19:unicast-committee-run"
        (Staged.stage
           (let n = 48 in
            let graph, _ = Planted.sample_planted (Prng.create 14) ~n ~k:20 in
            let inputs = Array.init n (Digraph.out_row graph) in
            fun () ->
              let proto =
                Unicast_clique.protocol ~n
                  ~seed_size:(Unicast_clique.recommended_seed_size n)
              in
              Unicast.run proto ~inputs ~rand:(Prng.create 15)));
      (* Ablations. *)
      Test.make ~name:"ablation:wht-fast"
        (Staged.stage (fun () -> Fourier.transform f12));
      Test.make ~name:"ablation:fourier-naive"
        (Staged.stage
           (let f8 = Boolfun.random (Prng.create 8) 8 in
            fun () -> naive_transform f8));
      Test.make ~name:"ablation:rank-bitpacked"
        (Staged.stage (fun () -> Gf2_matrix.rank mat128));
      Test.make ~name:"ablation:rank-naive"
        (Staged.stage (fun () -> naive_rank 128 128 (Gf2_matrix.get mat128)));
      Test.make ~name:"ablation:transcript-sampled"
        (Staged.stage (fun () ->
             Turn_model.sampled_transcript_dist turn_proto
               ~sample:(Progress.sample_rand_rows ~n:4)
               ~samples:4096 (Prng.create 9)));
      Test.make ~name:"ablation:simulator-round-cost"
        (Staged.stage
           (let proto = Equality.deterministic_protocol ~m:16 in
            let inputs = Array.make 64 (Prng.bitvec (Prng.create 10) 16) in
            fun () -> Bcast.run_deterministic proto ~inputs));
      Test.make ~name:"e20:claim-7-exact"
        (Staged.stage
           (let f = Boolfun.random (Prng.create 16) 8 in
            fun () -> Lemma_verify.claim_7 (Prng.create 17) f ~k:4 ~j:1));
      Test.make ~name:"e21-e23:gnp-diameter"
        (Staged.stage
           (let graph = Gnp.sample (Prng.create 18) ~n:128 ~p:0.08 in
            fun () -> Gnp.diameter graph));
      (* Geometric-skip G(n,p) sampler vs the per-pair one, in the sparse
         regime where the skipping pays. *)
      Test.make ~name:"ablation:gnp-sample-per-pair"
        (Staged.stage (fun () -> Gnp.sample (Prng.create 25) ~n:512 ~p:0.02));
      Test.make ~name:"ablation:gnp-sample-fast"
        (Staged.stage (fun () -> Gnp.sample_fast (Prng.create 25) ~n:512 ~p:0.02));
      Test.make ~name:"e22:mst-prim-128"
        (Staged.stage
           (let t = Wgraph.random (Prng.create 19) 128 in
            fun () -> Wgraph.mst_weight t));
      Test.make ~name:"e24:agm-sketch-encode"
        (Staged.stage
           (let params = { Agm_sketch.universe = 4096; seed = 20 } in
            let s = Agm_sketch.create params in
            let g = Prng.create 21 in
            for _ = 1 to 64 do
              Agm_sketch.add s (Prng.int g 4096)
            done;
            fun () -> Agm_sketch.to_bitvec s));
      Test.make ~name:"e26:twoparty-log-rank"
        (Staged.stage
           (let eq = Twoparty.equality 6 in
            fun () -> Twoparty.deterministic_lower_bound eq));
      Test.make ~name:"e27:f2-protocol-run"
        (Staged.stage
           (let d = 64 in
            let inputs = Array.init 16 (fun i -> Prng.bitvec (Prng.create (30 + i)) d) in
            let cfg = { F2_moment.d; repetitions = 8; seed = 22 } in
            fun () -> Bcast.run (F2_moment.protocol cfg) ~inputs ~rand:(Prng.create 23)));
      Test.make ~name:"e28:toy-prg-exact-distance"
        (Staged.stage
           (let proto =
              Turn_model.of_round_protocol ~n:3 ~rounds:1
                (fun ~id:_ ~input ~history:_ -> Bitvec.get input 3)
            in
            fun () -> Prg_progress.expected_distance_exact proto ~n:3 ~k:3 ~turns:3));
      (* Bron-Kerbosch pivoting ablation: a pivotless expansion for
         comparison. *)
      Test.make ~name:"ablation:bron-kerbosch-pivot"
        (Staged.stage
           (let graph, _ = Planted.sample_planted (Prng.create 24) ~n:64 ~k:16 in
            fun () -> Clique.max_clique graph));
      Test.make ~name:"ablation:bron-kerbosch-no-pivot"
        (Staged.stage
           (let graph, _ = Planted.sample_planted (Prng.create 24) ~n:64 ~k:16 in
            let adj = Clique.bidirectional_core graph in
            let n = 64 in
            fun () ->
              (* Pivotless Bron-Kerbosch. *)
              let best = ref 0 in
              let rec expand r p x =
                if Bitvec.is_zero p && Bitvec.is_zero x then begin
                  if r > !best then best := r
                end
                else begin
                  let p = Bitvec.copy p and x = Bitvec.copy x in
                  Bitvec.iter_set
                    (fun v ->
                      expand (r + 1)
                        (Bitvec.logand p adj.(v))
                        (Bitvec.logand x adj.(v));
                      Bitvec.set p v false;
                      Bitvec.set x v true)
                    (Bitvec.copy p)
                end
              in
              expand 0 (Bitvec.ones n) (Bitvec.create n);
              !best));
    ]

let run_micro () =
  Format.printf "=====================================================@.";
  Format.printf " Micro-benchmarks (Bechamel OLS, monotonic clock)@.";
  Format.printf "=====================================================@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    (* bcc-lint: allow det/hashtbl-order — sorted by name on the next line *)
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "%-45s %s@." "benchmark" "ns/run (OLS estimate)";
  Format.printf "%s@." (String.make 75 '-');
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
      | Some [ est ] -> Format.printf "%-45s %14.1f@." name est
      | Some ests ->
          Format.printf "%-45s %s@." name
            (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
            (String.concat " " (List.map (Printf.sprintf "%.1f") ests))
      | None -> Format.printf "%-45s (no estimate)@." name)
    rows;
  (* Machine-readable mirror of the printed estimates, so the perf
     trajectory can be tracked across commits (BENCH_micro.json). *)
  let estimates =
    List.map
      (fun (name, r) ->
        let ns =
          match Analyze.OLS.estimates r with
          | Some [ est ] -> Artifact.Float est
          | Some ests ->
              Artifact.List (List.map (fun e -> Artifact.Float e) ests)
          | None -> Artifact.Null
        in
        Artifact.Obj
          [ ("name", Artifact.String name); ("ns_per_run", ns) ])
      rows
  in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_micro.json")
    (Artifact.make ~kind:"bench" ~id:"micro"
       ~params:
         [
           ("instance", Artifact.String "monotonic_clock");
           ("limit", Artifact.Int 500);
           ("quota_seconds", Artifact.Float 0.25);
         ]
       (Artifact.List estimates));
  Format.printf "@.artifact written to %s/BENCH_micro.json@." Artifact.default_dir;
  Format.printf "@.";
  Artifact.List estimates

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
  Format.printf "=====================================================@.";
  Format.printf " Domain-count sweep (Par pool; wall-clock, best of 3)@.";
  Format.printf "=====================================================@.";
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
            let baseline = ref nan in
            let sweep =
              List.map
                (fun domains ->
                  Par.set_domain_count domains;
                  ignore (run ());
                  (* warm the pool *)
                  let best = ref infinity and value = ref nan in
                  for _ = 1 to 3 do
                    let v, seconds = Prof.time run in
                    value := v;
                    if seconds < !best then best := seconds
                  done;
                  if domains = 1 then baseline := !value
                  else if !value <> !baseline then
                    failwith
                      (Printf.sprintf
                         (* bcc-lint: allow det/float-format — %.17g is exact round-trip precision in a failure diagnostic *)
                         "%s: result drifted at %d domains (%.17g vs %.17g)"
                         name domains !value !baseline);
                  (domains, !best *. 1e9, !value))
                domain_counts
            in
            let t1 =
              match sweep with (_, ns, _) :: _ -> ns | [] -> assert false
            in
            List.iter
              (fun (domains, ns, value) ->
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
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_par.json")
    (Artifact.make ~kind:"bench" ~id:"par"
       ~params:
         [
           ("available_cores", Artifact.Int cores);
           ( "domain_counts",
             Artifact.List (List.map (fun d -> Artifact.Int d) domain_counts) );
           ("repetitions", Artifact.Int 3);
         ]
       json);
  Format.printf "@.artifact written to %s/BENCH_par.json@." Artifact.default_dir;
  Format.printf "@.";
  json

(* ------------------------------------------------- kernel-vs-oracle *)

type kern_row = {
  group : string;
  case : string;
  naive_ns : float;
  kern_ns : float;
  agree : bool;
}

(* Warm once (that run's value is the one compared), then best-of-[reps]
   wall-clock — same convention as the domain sweep. *)
let time_best ~reps f =
  let v = f () in
  let best = ref infinity in
  for _ = 1 to reps do
    let _, seconds = Prof.time f in
    if seconds < !best then best := seconds
  done;
  (v, !best *. 1e9)

let kern_case ~reps ~group ~case ~naive ~kern ~equal =
  let nv, naive_ns = time_best ~reps naive in
  let kv, kern_ns = time_best ~reps kern in
  let agree = equal nv kv in
  (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
  Format.printf "%-12s %-16s %14.0f %14.0f %9.1fx %s@." group case naive_ns
    kern_ns (naive_ns /. kern_ns)
    (if agree then "ok" else "MISMATCH");
  { group; case; naive_ns; kern_ns; agree }

(* The pre-kernel Lemma 1.10 measurement, float-op-for-float-op: the same
   counts via per-input oracles, combined in the same order, so the kernel
   path must reproduce it exactly. *)
let naive_lemma_1_10_measured f =
  let n = Boolfun.arity f in
  let size = 1 lsl n in
  let eval = Boolfun.eval_int f in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let all = Bcc_kern.Ref.count_true ~n eval in
    let forced = Bcc_kern.Ref.count_forced_ones ~n ~mask:(1 lsl i) eval in
    total :=
      !total
      +. Float.abs
           ((float_of_int all /. float_of_int size)
           -. (float_of_int forced /. float_of_int (size lsr 1)))
  done;
  !total /. float_of_int n

let run_kern ~quick () =
  Format.printf "=====================================================@.";
  Format.printf " Kernel sweep (Bcc_kern vs naive Ref oracles)@.";
  Format.printf "=====================================================@.";
  (* Best-of-5 even in quick mode: single-core VM timing is noisy enough
     that best-of-3 ratios swing ~2x run to run, which is what the
     compare gate's tolerance has to absorb. *)
  let reps = if quick then 5 else 7 in
  let g = Prng.create 2025 in
  let rows = ref [] in
  let add r = rows := r :: !rows in
  Format.printf "%-12s %-16s %14s %14s %10s@." "group" "case" "naive ns"
    "kernel ns" "speedup";
  Format.printf "%s@." (String.make 76 '-');
  (* GF(2) rank: packed forward elimination vs scalar bool elimination. *)
  List.iter
    (fun n ->
      let m = Gf2_matrix.random g ~rows:n ~cols:n in
      let bools =
        Array.init n (fun i -> Array.init n (fun j -> Gf2_matrix.get m i j))
      in
      add
        (kern_case ~reps ~group:"gf2-rank"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> Bcc_kern.Ref.rank_bools bools)
           ~kern:(fun () -> Gf2_matrix.rank m)
           ~equal:Int.equal))
    (if quick then [ 48; 128 ] else [ 48; 128; 256 ]);
  (* GF(2) multiply: M4RM vs row-at-a-time xor-accumulate. *)
  List.iter
    (fun n ->
      let a = Gf2_matrix.random g ~rows:n ~cols:n in
      let b = Gf2_matrix.random g ~rows:n ~cols:n in
      let ra = Array.init n (Gf2_matrix.row a) in
      let rb = Array.init n (Gf2_matrix.row b) in
      add
        (kern_case ~reps ~group:"gf2-mul"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> Bcc_kern.Ref.mul_rows ra rb ~cols:n)
           ~kern:(fun () -> Gf2_matrix.mul a b)
           ~equal:(fun rs m ->
             let ok = ref (Array.length rs = Gf2_matrix.rows m) in
             Array.iteri
               (fun i r ->
                 if !ok && not (Bitvec.equal r (Gf2_matrix.row m i)) then
                   ok := false)
               rs;
             !ok)))
    [ 64; 128; 256 ];
  (* E1/E2 enumeration: packed sub-cube counts vs per-input table probes. *)
  List.iter
    (fun n ->
      let f = Boolfun.random g n in
      add
        (kern_case ~reps ~group:"e1-enum"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> naive_lemma_1_10_measured f)
           ~kern:(fun () -> (Lemma_verify.lemma_1_10 f).Lemma_verify.measured)
           ~equal:Float.equal))
    (if quick then [ 12; 16 ] else [ 12; 16; 18 ]);
  (* WHT: cache-blocked (and >= 2^16, domain-parallel) butterflies vs the
     plain doubling loop.  0/1 inputs keep every intermediate exact, so
     equality is bitwise. *)
  List.iter
    (fun logn ->
      let len = 1 lsl logn in
      let base = Array.init len (fun _ -> if Prng.bool g then 1.0 else 0.0) in
      add
        (kern_case ~reps ~group:"wht"
           ~case:(Printf.sprintf "len=2^%d" logn)
           ~naive:(fun () ->
             let a = Array.copy base in
             Bcc_kern.Ref.wht_butterfly a;
             a)
           ~kern:(fun () ->
             let a = Array.copy base in
             Fourier.wht_inplace a;
             a)
           ~equal:(fun a b -> a = b)))
    [ 14; 16; 18 ];
  (* Full Fourier transform: packed-table fill + in-place float WHT vs
     the old float path (real table + butterfly + scale). *)
  List.iter
    (fun n ->
      let f = Boolfun.random g n in
      add
        (kern_case ~reps ~group:"fourier"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () ->
             let a = Fourier.real_table f in
             Bcc_kern.Ref.wht_butterfly a;
             let scale = 1.0 /. float_of_int (Array.length a) in
             Array.map (fun v -> v *. scale) a)
           ~kern:(fun () -> Fourier.transform f)
           ~equal:(fun a b -> a = b)))
    (if quick then [ 12 ] else [ 12; 16 ]);
  (* Batched threshold counting behind the distinguisher hit rates. *)
  let trials = if quick then 4096 else 65536 in
  let stats = Array.init trials (fun _ -> Prng.float g) in
  let threshold = 0.5 in
  add
    (kern_case ~reps ~group:"count-above"
       ~case:(Printf.sprintf "trials=%d" trials)
       ~naive:(fun () -> Bcc_kern.Ref.count_above stats ~threshold)
       ~kern:(fun () -> Bcc_kern.Enum.count_above stats ~threshold)
       ~equal:Int.equal);
  (* The 64-trials-per-word slicing primitive behind the distinguisher
     loops ([Distinguishers.advantage], [Advantage.protocol_gap]): pack
     each 64-trial slice with [Enum.above_word] and popcount, vs the
     per-trial branch. *)
  let slice_trials = 4096 in
  let slice_stats = Array.init slice_trials (fun _ -> Prng.float g) in
  add
    (kern_case ~reps ~group:"adv-slice"
       ~case:(Printf.sprintf "trials=%d" slice_trials)
       ~naive:(fun () -> Bcc_kern.Ref.count_above slice_stats ~threshold)
       ~kern:(fun () ->
         let hits = ref 0 in
         let b = ref 0 in
         while !b < slice_trials do
           let count = min 64 (slice_trials - !b) in
           let w =
             Bcc_kern.Enum.above_word slice_stats ~threshold ~lo:!b ~count
           in
           hits := !hits + Bitvec.popcount_word w;
           b := !b + 64
         done;
         !hits)
       ~equal:Int.equal);
  let rows = List.rev !rows in
  let all_agree = List.for_all (fun r -> r.agree) rows in
  let json =
    Artifact.List
      (List.map
         (fun r ->
           Artifact.Obj
             [
               ("group", Artifact.String r.group);
               ("case", Artifact.String r.case);
               ("naive_ns", Artifact.Float r.naive_ns);
               ("kern_ns", Artifact.Float r.kern_ns);
               ("speedup", Artifact.Float (r.naive_ns /. r.kern_ns));
               ("agree", Artifact.Bool r.agree);
             ])
         rows)
  in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_kern.json")
    (Artifact.make ~kind:"bench" ~id:"kern"
       ~params:
         [
           ("repetitions", Artifact.Int reps);
           ("quick", Artifact.Bool quick);
         ]
       json);
  Format.printf "@.artifact written to %s/BENCH_kern.json@." Artifact.default_dir;
  if not all_agree then
    Format.printf "KERNEL/ORACLE MISMATCH — see the rows marked MISMATCH@.";
  Format.printf "@.";
  (json, all_agree)

(* ------------------------------------------------- graph kernels *)

(* Packed graph kernels (Bcc_kern.Graph) vs the allocating Ref oracles
   they replaced: the A land A^T core, triangle/K4 counting, and the
   scratch-stack Bron-Kerbosch.  Same in-run agreement contract as
   [run_kern]: any mismatch exits nonzero. *)
let run_graph ~quick () =
  Format.printf "=====================================================@.";
  Format.printf " Graph kernel sweep (Bcc_kern.Graph vs naive Ref oracles)@.";
  Format.printf "=====================================================@.";
  let reps = if quick then 3 else 5 in
  let g = Prng.create 2026 in
  let rows = ref [] in
  let add r = rows := r :: !rows in
  Format.printf "%-16s %-16s %14s %14s %10s@." "group" "case" "naive ns"
    "kernel ns" "speedup";
  Format.printf "%s@." (String.make 76 '-');
  let sizes = if quick then [ 128; 256 ] else [ 128; 256; 512 ] in
  List.iter
    (fun n ->
      let graph = Planted.sample_rand g n in
      let adj_rows = Digraph.unsafe_rows graph in
      add
        (kern_case ~reps ~group:"graph-core"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> Bcc_kern.Ref.bidirectional_core adj_rows)
           ~kern:(fun () -> Bcc_kern.Graph.bidirectional_core adj_rows)
           ~equal:(fun a b ->
             Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b));
      (* The core of A_rand is G(n, 1/4) — the e17 counting regime. *)
      let core = Clique.bidirectional_core graph in
      add
        (kern_case ~reps ~group:"graph-tri"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> Bcc_kern.Ref.count_triangles core)
           ~kern:(fun () -> Bcc_kern.Graph.count_triangles core)
           ~equal:Int.equal);
      add
        (kern_case ~reps ~group:"graph-k4"
           ~case:(Printf.sprintf "n=%d" n)
           ~naive:(fun () -> Bcc_kern.Ref.count_k4 core)
           ~kern:(fun () -> Bcc_kern.Graph.count_k4 core)
           ~equal:Int.equal))
    sizes;
  (* Bron-Kerbosch on planted instances (the e12/e19 regime, k ~ 8 sqrt n
     so the planted clique dominates the core's natural cliques). *)
  List.iter
    (fun (n, k) ->
      let graph, _ = Planted.sample_planted g ~n ~k in
      let core = Clique.bidirectional_core graph in
      let everyone = Bitvec.ones n in
      add
        (kern_case ~reps ~group:"graph-maxclique"
           ~case:(Printf.sprintf "n=%d,k=%d" n k)
           ~naive:(fun () -> Bcc_kern.Ref.max_clique core everyone)
           ~kern:(fun () -> Bcc_kern.Graph.max_clique core everyone)
           ~equal:(List.equal Int.equal)))
    (if quick then [ (128, 24); (256, 40) ] else [ (128, 24); (256, 40); (512, 64) ]);
  let rows = List.rev !rows in
  let all_agree = List.for_all (fun r -> r.agree) rows in
  let json =
    Artifact.List
      (List.map
         (fun r ->
           Artifact.Obj
             [
               ("group", Artifact.String r.group);
               ("case", Artifact.String r.case);
               ("naive_ns", Artifact.Float r.naive_ns);
               ("kern_ns", Artifact.Float r.kern_ns);
               ("speedup", Artifact.Float (r.naive_ns /. r.kern_ns));
               ("agree", Artifact.Bool r.agree);
             ])
         rows)
  in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_graph.json")
    (Artifact.make ~kind:"bench" ~id:"graph"
       ~params:
         [
           ("repetitions", Artifact.Int reps);
           ("quick", Artifact.Bool quick);
         ]
       json);
  Format.printf "@.artifact written to %s/BENCH_graph.json@." Artifact.default_dir;
  if not all_agree then
    Format.printf "KERNEL/ORACLE MISMATCH — see the rows marked MISMATCH@.";
  Format.printf "@.";
  (json, all_agree)

(* ------------------------------------------------- sparse kernels *)

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

(* Sparse CSR kernels vs the dense pipeline on the same graph — the
   cross-representation oracle: every row pairs a dense measurement with
   its sparse twin and checks the results coincide (structurally for the
   sampler/core rows, exactly for the counts).  The n = 4096, p = 0.01
   triangle row is the regime the gate pins: CSR merge work scales with
   the live degrees (~ pn per row) while the dense kernels scan n/64
   words per edge whatever the density. *)
let run_sparse ~quick () =
  Format.printf "=====================================================@.";
  Format.printf " Sparse kernel sweep (CSR vs dense pipeline oracles)@.";
  Format.printf "=====================================================@.";
  let reps = if quick then 3 else 5 in
  let rows = ref [] in
  let add r = rows := r :: !rows in
  Format.printf "%-16s %-16s %14s %14s %10s@." "group" "case" "dense ns"
    "sparse ns" "speedup";
  Format.printf "%s@." (String.make 76 '-');
  let cases = if quick then [ (4096, 0.01) ] else [ (4096, 0.01); (8192, 0.005) ] in
  List.iter
    (fun (n, p) ->
      (* Case labels are artifact bytes: name the density as an exact
         reciprocal rather than float-format p. *)
      let case = Printf.sprintf "n=%d,p=1/%d" n (int_of_float (1.0 /. p)) in
      let dg = Gnp.sample_fast (Prng.create 31) ~n ~p in
      let sg = Sparse.sample_gnp (Prng.create 31) ~n ~p in
      add
        (kern_case ~reps ~group:"sparse-sample" ~case
           ~naive:(fun () -> Gnp.sample_fast (Prng.create 31) ~n ~p)
           ~kern:(fun () -> Sparse.sample_gnp (Prng.create 31) ~n ~p)
           ~equal:(fun d s -> spgraph_equal (Sparse.of_digraph d) s));
      let dcore = Bcc_kern.Graph.bidirectional_core (Digraph.unsafe_rows dg) in
      let score = Bcc_kern.Spgraph.bidirectional_core sg in
      add
        (kern_case ~reps ~group:"sparse-core" ~case
           ~naive:(fun () ->
             Bcc_kern.Graph.bidirectional_core (Digraph.unsafe_rows dg))
           ~kern:(fun () -> Bcc_kern.Spgraph.bidirectional_core sg)
           ~equal:(fun d s -> spgraph_matches_rows d s));
      add
        (kern_case ~reps ~group:"sparse-tri" ~case
           ~naive:(fun () -> Bcc_kern.Graph.count_triangles dcore)
           ~kern:(fun () -> Bcc_kern.Spgraph.count_triangles score)
           ~equal:Int.equal);
      add
        (kern_case ~reps ~group:"sparse-k4" ~case
           ~naive:(fun () -> Bcc_kern.Graph.count_k4 dcore)
           ~kern:(fun () -> Bcc_kern.Spgraph.count_k4 score)
           ~equal:Int.equal);
      add
        (kern_case ~reps ~group:"sparse-degree" ~case
           ~naive:(fun () -> Graph_backend.Dense.degree_sums dg)
           ~kern:(fun () -> Sparse.degree_sums sg)
           ~equal:(fun (a : int array) b -> a = b)))
    cases;
  let rows = List.rev !rows in
  let all_agree = List.for_all (fun r -> r.agree) rows in
  let json =
    Artifact.List
      (List.map
         (fun r ->
           Artifact.Obj
             [
               ("group", Artifact.String r.group);
               ("case", Artifact.String r.case);
               ("naive_ns", Artifact.Float r.naive_ns);
               ("kern_ns", Artifact.Float r.kern_ns);
               ("speedup", Artifact.Float (r.naive_ns /. r.kern_ns));
               ("agree", Artifact.Bool r.agree);
             ])
         rows)
  in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_sparse.json")
    (Artifact.make ~kind:"bench" ~id:"sparse"
       ~params:
         [
           ("repetitions", Artifact.Int reps);
           ("quick", Artifact.Bool quick);
         ]
       json);
  Format.printf "@.artifact written to %s/BENCH_sparse.json@." Artifact.default_dir;
  if not all_agree then
    Format.printf "DENSE/SPARSE MISMATCH — see the rows marked MISMATCH@.";
  Format.printf "@.";
  (json, all_agree)

(* ------------------------------------------------- batched-draw sweep *)

(* Part 6b: the batched PRNG engine's fills (Prng.Block) against the
   scalar draw loops they replace, plus the sharded G(n,p) sampler
   against the block sampler.  The fill rows are exact-stream oracles:
   block and scalar consume the identical xoshiro256++ words, so the
   outputs must agree byte for byte.  The sharded sampler reads a
   different (documented) stream, so its oracle is statistical: the
   edge count must sit within 6 sigma of the G(n,p) mean.  Honest
   expectations on this class of hardware: fills are memory-streaming
   (2-4x over scalar); the sampler row includes CSR construction on
   both sides — see docs/PERFORMANCE.md "Batched draws". *)
let run_prng ~quick () =
  Format.printf "=====================================================@.";
  Format.printf " Batched PRNG sweep (Prng.Block vs scalar draws)@.";
  Format.printf "=====================================================@.";
  let reps = if quick then 3 else 5 in
  let rows = ref [] in
  let add r = rows := r :: !rows in
  Format.printf "%-16s %-16s %14s %14s %10s@." "group" "case" "scalar ns"
    "block ns" "speedup";
  Format.printf "%s@." (String.make 76 '-');
  let len = if quick then 1 lsl 16 else 1 lsl 20 in
  let case_len = Printf.sprintf "len=%d" len in
  (* Two destination buffers per row — the scalar and block closures must
     not alias or the equality oracle compares a buffer with itself. *)
  let i64_a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  let i64_b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout len in
  add
    (kern_case ~reps ~group:"prng-fill64" ~case:case_len
       ~naive:(fun () ->
         let g = Prng.create 71 in
         for i = 0 to len - 1 do
           i64_a.{i} <- Prng.bits64 g
         done;
         i64_a)
       ~kern:(fun () ->
         let g = Prng.create 71 in
         Prng.Block.fill_bits64 g i64_b ~pos:0 ~len;
         i64_b)
       ~equal:(fun a b ->
         let ok = ref true in
         for i = 0 to len - 1 do
           if not (Int64.equal a.{i} b.{i}) then ok := false
         done;
         !ok));
  let geo_p = 0.01 in
  let log1mp = Float.log (1.0 -. geo_p) in
  let cap = float_of_int (1 lsl 30) in
  let int_a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  let int_b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  add
    (kern_case ~reps ~group:"prng-geom" ~case:(case_len ^ ",p=1/100")
       ~naive:(fun () ->
         let g = Prng.create 73 in
         for i = 0 to len - 1 do
           let u = Prng.float g in
           let skip = Float.log (1.0 -. u) /. log1mp in
           int_a.{i} <- int_of_float (Float.min skip cap)
         done;
         int_a)
       ~kern:(fun () ->
         let g = Prng.create 73 in
         Prng.Block.fill_geometric g ~log1mp ~cap int_b ~pos:0 ~len;
         int_b)
       ~equal:(fun a b ->
         let ok = ref true in
         for i = 0 to len - 1 do
           if a.{i} <> b.{i} then ok := false
         done;
         !ok));
  (* Whole-sampler row: the sharded sampler against the block sampler
     it stands in for at scale.  It reads its own documented stream, so
     the oracle is the 6-sigma edge-count envelope on both graphs.  (The
     block sampler's exact-stream oracle, the dense decoder of the same
     stream, is the sparse sweep's sample row.) *)
  let cases =
    if quick then [ (4096, 0.01) ] else [ (4096, 0.01); (16384, 0.005) ]
  in
  List.iter
    (fun (n, p) ->
      let case = Printf.sprintf "n=%d,p=1/%d" n (int_of_float (1.0 /. p)) in
      let pairs = float_of_int n *. float_of_int (n - 1) /. 2.0 in
      let mean = pairs *. p in
      let sigma = Float.sqrt (pairs *. p *. (1.0 -. p)) in
      let in_envelope (g : Bcc_kern.Spgraph.t) =
        (* [edge_count] is directed (2m). *)
        let m = float_of_int (Sparse.edge_count g / 2) in
        Float.abs (m -. mean) <= 6.0 *. sigma
      in
      add
        (kern_case ~reps ~group:"prng-sharded" ~case
           ~naive:(fun () -> Sparse.sample_gnp (Prng.create 31) ~n ~p)
           ~kern:(fun () -> Sparse.sample_gnp_sharded (Prng.create 31) ~n ~p)
           ~equal:(fun a b -> in_envelope a && in_envelope b)))
    cases;
  let rows = List.rev !rows in
  let all_agree = List.for_all (fun r -> r.agree) rows in
  let json =
    Artifact.List
      (List.map
         (fun r ->
           Artifact.Obj
             [
               ("group", Artifact.String r.group);
               ("case", Artifact.String r.case);
               ("naive_ns", Artifact.Float r.naive_ns);
               ("kern_ns", Artifact.Float r.kern_ns);
               ("speedup", Artifact.Float (r.naive_ns /. r.kern_ns));
               ("agree", Artifact.Bool r.agree);
             ])
         rows)
  in
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH_prng.json")
    (Artifact.make ~kind:"bench" ~id:"prng"
       ~params:
         [
           ("repetitions", Artifact.Int reps);
           ("quick", Artifact.Bool quick);
         ]
       json);
  Format.printf "@.artifact written to %s/BENCH_prng.json@." Artifact.default_dir;
  if not all_agree then
    Format.printf "SCALAR/BLOCK MISMATCH — see the rows marked MISMATCH@.";
  Format.printf "@.";
  (json, all_agree)

(* --------------------------------------------------- regression gate *)

(* The gate compares kernel-vs-oracle *speedup ratios* against the
   committed baseline, not raw nanoseconds: both sides of each ratio are
   measured on the same machine in the same run, so the comparison is
   meaningful on hardware the baseline was never measured on.  A kernel
   whose advantage over its own oracle shrank by more than
   [compare_tolerance] has regressed. *)
let compare_tolerance = 1.5

let baseline_path = "BENCH_baseline.json"

let speedup_rows section_json =
  match Artifact.to_list_opt section_json with
  | None -> []
  | Some rows ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Artifact.member "group" row) Artifact.to_string_opt,
              Option.bind (Artifact.member "case" row) Artifact.to_string_opt,
              Option.bind (Artifact.member "speedup" row) Artifact.to_float_opt )
          with
          | Some g, Some c, Some s -> Some (g ^ "/" ^ c, s)
          | _ -> None)
        rows

let run_compare ~update () =
  (* Two independent quick-mode measurements of both kernel families.  The
     gate pairs the per-kernel extreme that is robust for its side — the
     stored baseline keeps each kernel's *minimum* observed speedup, a
     fresh run is credited its *maximum* — so a single noisy sample can
     neither trip the tolerance nor inflate the baseline, while a real
     regression (which shifts both samples) still fails. *)
  let measure () =
    let kern_json, kern_ok = run_kern ~quick:true () in
    let graph_json, graph_ok = run_graph ~quick:true () in
    let sparse_json, sparse_ok = run_sparse ~quick:true () in
    let prng_json, prng_ok = run_prng ~quick:true () in
    ( speedup_rows kern_json @ speedup_rows graph_json
      @ speedup_rows sparse_json @ speedup_rows prng_json,
      Artifact.Obj
        [
          ("kern", kern_json);
          ("graph", graph_json);
          ("sparse", sparse_json);
          ("prng", prng_json);
        ],
      kern_ok && graph_ok && sparse_ok && prng_ok )
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
                   [
                     ("name", Artifact.String name);
                     ("speedup", Artifact.Float s);
                   ])
               (combine Float.min))));
    Format.printf "baseline written to %s@." baseline_path;
    (fresh_payload, agree_ok)
  end
  else begin
    let baseline =
      try Artifact.read_file ~path:baseline_path
      with Sys_error _ ->
        failwith
          (Printf.sprintf
             "%s not found — run `bench compare --update` and commit it"
             baseline_path)
    in
    let base =
      match
        Option.bind (Artifact.member "payload" baseline) Artifact.to_list_opt
      with
      | None -> failwith (Printf.sprintf "%s: malformed payload" baseline_path)
      | Some rows ->
          List.filter_map
            (fun row ->
              match
                ( Option.bind (Artifact.member "name" row) Artifact.to_string_opt,
                  Option.bind (Artifact.member "speedup" row)
                    Artifact.to_float_opt )
              with
              | Some name, Some s -> Some (name, s)
              | _ -> None)
            rows
    in
    let fresh = combine Float.max in
    Format.printf "=====================================================@.";
    (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
    Format.printf " Regression gate vs %s (tolerance %.1fx)@." baseline_path
      compare_tolerance;
    Format.printf "=====================================================@.";
    Format.printf "%-34s %9s %9s %7s@." "kernel" "base" "fresh" "ratio";
    Format.printf "%s@." (String.make 62 '-');
    let failures = ref [] in
    let diff_rows = ref [] in
    List.iter
      (fun (name, base_speedup) ->
        match List.assoc_opt name fresh with
        | None ->
            failures := Printf.sprintf "%s: missing from fresh run" name :: !failures;
            diff_rows :=
              Artifact.Obj
                [
                  ("name", Artifact.String name);
                  ("base_speedup", Artifact.Float base_speedup);
                  ("status", Artifact.String "missing");
                ]
              :: !diff_rows;
            (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
            Format.printf "%-34s %9.1f %9s %7s MISSING@." name base_speedup "-" "-"
        | Some fresh_speedup ->
            (* ratio > 1 means the kernel's edge over its oracle shrank. *)
            let ratio = base_speedup /. fresh_speedup in
            let bad = ratio > compare_tolerance in
            if bad then
              failures :=
                (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
                Printf.sprintf "%s: speedup %.1fx -> %.1fx (%.2fx regression)"
                  name base_speedup fresh_speedup ratio
                :: !failures;
            diff_rows :=
              Artifact.Obj
                [
                  ("name", Artifact.String name);
                  ("base_speedup", Artifact.Float base_speedup);
                  ("fresh_speedup", Artifact.Float fresh_speedup);
                  ("ratio", Artifact.Float ratio);
                  ("status",
                   Artifact.String (if bad then "regressed" else "ok"));
                ]
              :: !diff_rows;
            (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
            Format.printf "%-34s %9.1f %9.1f %7.2f %s@." name base_speedup
              fresh_speedup ratio
              (if bad then "REGRESSED" else "ok"))
      base;
    (* Kernels measured fresh but absent from the committed baseline —
       typically benches added since the last `compare --update`.  They
       cannot be gated (no reference), so they pass with a null baseline
       and status "new"; the row makes them visible in CI diffs instead
       of silently dropping out of the report. *)
    List.iter
      (fun (name, fresh_speedup) ->
        if not (List.mem_assoc name base) then begin
          diff_rows :=
            Artifact.Obj
              [
                ("name", Artifact.String name);
                ("base_speedup", Artifact.Null);
                ("fresh_speedup", Artifact.Float fresh_speedup);
                ("status", Artifact.String "new");
              ]
            :: !diff_rows;
          (* bcc-lint: allow det/float-format — human console report; the JSON mirror goes through Artifact *)
          Format.printf "%-34s %9s %9.1f %7s NEW@." name "-" fresh_speedup "-"
        end)
      fresh;
    let ok = agree_ok && !failures = [] in
    (* Per-row diff artifact for CI upload: every gated row with its
       baseline speedup, fresh speedup, erosion ratio, and verdict. *)
    Artifact.write_file
      ~path:(Filename.concat Artifact.default_dir "BENCH_compare.json")
      (Artifact.make ~kind:"bench" ~id:"compare"
         ~params:
           [
             ("tolerance", Artifact.Float compare_tolerance);
             ("pass", Artifact.Bool ok);
           ]
         (Artifact.List (List.rev !diff_rows)));
    Format.printf "@.artifact written to %s/BENCH_compare.json@."
      Artifact.default_dir;
    if !failures <> [] then begin
      Format.printf "@.regressions (name: baseline -> fresh):@.";
      List.iter (Format.printf "  %s@.") (List.rev !failures)
    end;
    Format.printf "@.";
    (fresh_payload, ok)
  end

let sections =
  [ "all"; "tables"; "micro"; "par"; "kern"; "graph"; "sparse"; "prng";
    "compare" ]

let flags = [ "--quick"; "--prof"; "--update" ]

let usage () =
  prerr_string
    "usage: main.exe [SECTION] [--quick] [--prof] [--update]\n\
    \  SECTION: all (default), tables, micro, par, kern, graph, sparse, prng,\n\
    \           compare\n\
    \  --quick   smaller sizes (CI)\n\
    \  --prof    run under the hierarchical profiler (PROF_bench.json)\n\
    \  --update  with compare: rewrite BENCH_baseline.json\n";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let named, rest = List.partition (fun a -> List.mem a flags) args in
  let what =
    match rest with
    | [] -> "all"
    | [ s ] when List.mem s sections -> s
    | _ -> usage ()
  in
  let quick = List.mem "--quick" named in
  (* --prof: run the selected sections under the hierarchical profiler and
     write PROF_bench.json / PROF_bench.trace.json alongside BENCH.json. *)
  let prof = List.mem "--prof" named in
  if prof then Prof.start ();
  let sections = ref [] in
  let add name payload = sections := (name, payload) :: !sections in
  let ok = ref true in
  (match what with
  | "tables" -> add "tables" (run_tables ())
  | "micro" -> add "micro" (run_micro ())
  | "par" -> add "par" (run_par ())
  | "kern" ->
      let payload, agree = run_kern ~quick () in
      add "kern" payload;
      ok := agree
  | "graph" ->
      let payload, agree = run_graph ~quick () in
      add "graph" payload;
      ok := agree
  | "sparse" ->
      let payload, agree = run_sparse ~quick () in
      add "sparse" payload;
      ok := agree
  | "prng" ->
      let payload, agree = run_prng ~quick () in
      add "prng" payload;
      ok := agree
  | "compare" ->
      let update = List.mem "--update" named in
      let payload, pass = run_compare ~update () in
      add "compare" payload;
      ok := pass
  | _ (* "all" *) ->
      add "tables" (run_tables ());
      add "micro" (run_micro ());
      add "par" (run_par ());
      let payload, agree = run_kern ~quick () in
      add "kern" payload;
      ok := agree;
      let payload, agree = run_graph ~quick () in
      add "graph" payload;
      ok := !ok && agree;
      let payload, agree = run_sparse ~quick () in
      add "sparse" payload;
      ok := !ok && agree;
      let payload, agree = run_prng ~quick () in
      add "prng" payload;
      ok := !ok && agree);
  (* One stable envelope over whatever ran, for cross-commit tracking. *)
  Artifact.write_file
    ~path:(Filename.concat Artifact.default_dir "BENCH.json")
    (Artifact.make ~kind:"bench" ~id:"all"
       ~params:[ ("bench_schema_version", Artifact.Int 1) ]
       (Artifact.Obj (List.rev !sections)));
  Format.printf "consolidated envelope written to %s/BENCH.json@."
    Artifact.default_dir;
  if prof then begin
    Prof.stop ();
    let r = Prof.report () in
    Prof.pp_report Format.std_formatter r;
    Artifact.write_file
      ~path:(Filename.concat Artifact.default_dir "PROF_bench.json")
      (Prof.to_artifact ~id:"bench" r);
    let oc = open_out (Filename.concat Artifact.default_dir "PROF_bench.trace.json") in
    output_string oc (Prof.to_perfetto ());
    output_char oc '\n';
    close_out oc;
    Format.printf "profile written to %s/PROF_bench.json (+ .trace.json)@."
      Artifact.default_dir
  end;
  Format.printf "done.@.";
  if not !ok then exit 1
