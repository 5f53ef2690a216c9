(* Simulator pins: the md5 of what a Bcast run hands back, recorded on
   the simulator as it stood before per-run public state and round-array
   transcripts.  A change to the simulator loop, the transcript store or
   a protocol's shared computation fails here even when every protocol
   still "works".

   - the five Bcast configurations of [Runner], rebuilt here so the test
     can read their transcripts: md5 of [Transcript.key] at seed 7;
   - Theorem B.1's finder at n = 256, k = 110 (the benchmark's
     bcast-clique op) and the AGM connectivity protocol at n = 32: md5 of
     every processor's output, [Transcript.key] and [random_bits]. *)

let md5 s = Digest.to_hex (Digest.string s)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let run_digest render (r : _ Bcast.result) =
  md5
    (String.concat "\n"
       [
         String.concat ";" (Array.to_list (Array.map render r.Bcast.outputs));
         Transcript.key r.Bcast.transcript;
         ints r.Bcast.random_bits;
       ])

(* Each replica returns its result's transcript key, transcript length
   and random bits; the last two are checked against [Runner.run] so a
   replica cannot drift from the configuration it stands for. *)
let runner_replica name ~seed =
  let g = Prng.create seed in
  let out (r : _ Bcast.result) =
    (Transcript.key r.Bcast.transcript, Transcript.length r.Bcast.transcript,
     r.Bcast.random_bits)
  in
  match name with
  | "equality-det" ->
      let n = 6 in
      let proto = Equality.deterministic_protocol ~m:8 in
      let inputs = Array.make n (Prng.bitvec g 8) in
      out (Bcast.run_deterministic proto ~inputs)
  | "equality-fp" ->
      let n = 6 in
      let proto = Equality.fingerprint_protocol ~m:8 ~repetitions:2 in
      let inputs = Array.make n (Prng.bitvec g 8) in
      out (Bcast.run proto ~inputs ~rand:g)
  | "full-rank" ->
      let n = 16 in
      let proto = Full_rank.truncated_protocol ~n ~rounds:4 in
      let m = Full_rank.sample_uniform ~n g in
      let inputs = Array.init n (Gf2_matrix.row m) in
      out (Bcast.run_deterministic proto ~inputs)
  | "planted-clique" ->
      let n = 32 and k = 16 in
      let graph, _ = Planted.sample_planted g ~n ~k in
      let inputs = Array.init n (Digraph.out_row graph) in
      out (Bcast.run (Planted_clique_algo.protocol ~n ~k) ~inputs ~rand:g)
  | "f2-moment" ->
      let n = 8 in
      let cfg = { F2_moment.d = 32; repetitions = 4; seed } in
      let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split g i) 32) in
      out (Bcast.run (F2_moment.protocol cfg) ~inputs ~rand:g)
  | _ -> Alcotest.failf "no replica for %s" name

let runner_keys =
  [
    ("equality-det", "3edaebdf1e064a709ad59bd01e1c2ee0");
    ("equality-fp", "2f89f3b51f9bfb95fe7da6304e9e0def");
    ("full-rank", "05edc52d33ef4ec425e4db82e0b5f3a6");
    ("planted-clique", "94960e53f7a92a7b054291f1d18a7ea5");
    ("f2-moment", "83241b09b0b3b594bcdfde773a3161de");
  ]

let test_runner_transcript_keys () =
  let fresh (name, _) =
    let key, len, bits = runner_replica name ~seed:7 in
    let s = Runner.run ~name ~seed:7 in
    Alcotest.(check int) (name ^ " transcript length") s.Runner.transcript_length len;
    Alcotest.(check (array int)) (name ^ " random bits") s.Runner.random_bits bits;
    (name, md5 key)
  in
  Alcotest.(check (list (pair string string)))
    "Transcript.key md5 per Runner configuration" runner_keys
    (List.map fresh runner_keys)

let render_outcome = function
  | Planted_clique_algo.Found c -> "F" ^ String.concat "," (List.map string_of_int c)
  | Planted_clique_algo.Aborted_too_many_active -> "A"
  | Planted_clique_algo.Aborted_small_clique -> "S"

let planted_pins =
  [
    (1, "be63dcd7ecd9da9ea8b62660faeace6c");
    (2, "62e833e26118ec257341c83e771e08d1");
    (3, "60deceae7d2be7e61376cb692d6cf0ed");
    (4, "5e974fa52e1801adb9c01ad68a8dd33b");
    (5, "95e7bca47ee59ff0409f26b73d72661e");
  ]

let test_planted_clique_runs () =
  let n = 256 and k = 110 in
  let fresh (seed, _) =
    let g = Prng.create seed in
    let graph, _ = Planted.sample_planted g ~n ~k in
    let inputs = Array.init n (Digraph.out_row graph) in
    let r = Bcast.run (Planted_clique_algo.protocol ~n ~k) ~inputs ~rand:g in
    (seed, run_digest render_outcome r)
  in
  Alcotest.(check (list (pair int string)))
    "outputs, key and random bits md5 per seed" planted_pins
    (List.map fresh planted_pins)

let connectivity_pins =
  [
    (1, "438e61dd07917574db8233522f8b2555");
    (2, "f03b6861cec18db9fc62f16683c308e0");
  ]

let test_connectivity_runs () =
  let n = 32 in
  let fresh (seed, _) =
    let g = Prng.create seed in
    let graph = Gnp.sample_fast g ~n ~p:0.1 in
    let inputs = Array.init n (Digraph.out_row graph) in
    let proto = Connectivity.protocol (Connectivity.default_config ~n ~seed:42) in
    (seed, run_digest string_of_int (Bcast.run proto ~inputs ~rand:g))
  in
  Alcotest.(check (list (pair int string)))
    "outputs, key and random bits md5 per seed" connectivity_pins
    (List.map fresh connectivity_pins)

let () =
  Alcotest.run "pins"
    [
      ( "bcast",
        [
          Alcotest.test_case "Runner transcript keys" `Quick test_runner_transcript_keys;
          Alcotest.test_case "planted clique n=256 k=110" `Quick test_planted_clique_runs;
          Alcotest.test_case "connectivity n=32" `Quick test_connectivity_runs;
        ] );
    ]
