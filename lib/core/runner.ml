(* Named, tractably-sized protocol configurations that the CLI (and CI)
   can run with a trace sink or the metrics registry attached.  Each entry
   fixes every parameter except the seed, so a (name, seed) pair pins the
   run — and therefore the trace — exactly. *)

type summary = {
  protocol : string;
  model : string;
  n : int;
  msg_bits : int;
  rounds_used : int;
  channel_bits : int;
  random_bits : int array;
  transcript_length : int;
}

type entry = { name : string; describe : string; run : seed:int -> summary }

let bcast_summary (proto : _ Bcast.protocol) ~n (r : _ Bcast.result) =
  {
    protocol = proto.Bcast.name;
    model = "bcast";
    n;
    msg_bits = proto.Bcast.msg_bits;
    rounds_used = r.Bcast.rounds_used;
    channel_bits = r.Bcast.broadcast_bits;
    random_bits = r.Bcast.random_bits;
    transcript_length = Transcript.length r.Bcast.transcript;
  }

let entries =
  [
    {
      name = "equality-det";
      describe = "deterministic bit-by-bit equality, n=6, m=8 (no randomness)";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 6 in
          let proto = Equality.deterministic_protocol ~m:8 in
          let inputs = Array.make n (Prng.bitvec g 8) in
          bcast_summary proto ~n (Bcast.run_deterministic proto ~inputs));
    };
    {
      name = "equality-fp";
      describe = "fingerprint equality, n=6, m=8, 2 repetitions";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 6 in
          let proto = Equality.fingerprint_protocol ~m:8 ~repetitions:2 in
          let inputs = Array.make n (Prng.bitvec g 8) in
          bcast_summary proto ~n (Bcast.run proto ~inputs ~rand:g));
    };
    {
      name = "full-rank";
      describe = "truncated full-rank test, n=16, 4 rounds (deterministic)";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 16 in
          let proto = Full_rank.truncated_protocol ~n ~rounds:4 in
          let m = Full_rank.sample_uniform ~n g in
          let inputs = Array.init n (Gf2_matrix.row m) in
          bcast_summary proto ~n (Bcast.run_deterministic proto ~inputs));
    };
    {
      name = "planted-clique";
      describe = "Theorem B.1 planted clique finder, n=32, k=16";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 32 and k = 16 in
          let graph, _ = Planted.sample_planted g ~n ~k in
          let inputs = Array.init n (Digraph.out_row graph) in
          let proto = Planted_clique_algo.protocol ~n ~k in
          bcast_summary proto ~n (Bcast.run proto ~inputs ~rand:g));
    };
    {
      name = "f2-moment";
      describe = "AMS F2 estimation, n=8, d=32, 4 repetitions";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 8 in
          let cfg = { F2_moment.d = 32; repetitions = 4; seed } in
          let proto = F2_moment.protocol cfg in
          let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split g i) 32) in
          bcast_summary proto ~n (Bcast.run proto ~inputs ~rand:g));
    };
    {
      name = "unicast-clique";
      describe = "unicast committee clique finder, n=16";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 16 in
          let graph, _ = Planted.sample_planted g ~n ~k:8 in
          let inputs = Array.init n (Digraph.out_row graph) in
          let proto =
            Unicast_clique.protocol ~n
              ~seed_size:(Unicast_clique.recommended_seed_size n)
          in
          let r = Unicast.run proto ~inputs ~rand:g in
          {
            protocol = proto.Unicast.name;
            model = "unicast";
            n;
            msg_bits = proto.Unicast.msg_bits;
            rounds_used = r.Unicast.rounds_used;
            channel_bits = r.Unicast.channel_bits;
            random_bits = r.Unicast.random_bits;
            transcript_length = 0;
          });
    };
    {
      name = "turn-majority";
      describe = "sequential turn model, n=4, 2 rounds of adaptive majority";
      run =
        (fun ~seed ->
          let g = Prng.create seed in
          let n = 4 in
          let proto =
            Turn_model.of_round_protocol ~n ~rounds:2
              (fun ~id:_ ~input ~history ->
                let seen =
                  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 history
                in
                Bitvec.popcount input + seen > Bitvec.length input)
          in
          let inputs = Array.init n (fun _ -> Prng.bitvec g n) in
          let history = Turn_model.run proto ~inputs in
          {
            protocol = "turn-majority";
            model = "turn";
            n;
            msg_bits = 1;
            rounds_used = proto.Turn_model.turns / n;
            channel_bits = Array.length history;
            random_bits = [||];
            transcript_length = Array.length history;
          });
    };
  ]

let names = List.map (fun e -> e.name) entries
let find name = List.find_opt (fun e -> e.name = name) entries
let describe name = Option.map (fun e -> e.describe) (find name)

let run ~name ~seed =
  match find name with
  | Some e -> Prof.span ("runner:" ^ name) (fun () -> e.run ~seed)
  | None ->
      invalid_arg
        (Printf.sprintf "Runner.run: unknown protocol %S (known: %s)" name
           (String.concat ", " names))

let run_replicas ~name ~seed ~replicas =
  if replicas < 1 then invalid_arg "Runner.run_replicas: replicas must be >= 1";
  match find name with
  | None ->
      invalid_arg
        (Printf.sprintf "Runner.run_replicas: unknown protocol %S (known: %s)"
           name
           (String.concat ", " names))
  | Some e ->
      (* Replica [i] is exactly [run ~seed:(seed + i)]; [Par.map_array]
         keeps the summaries in replica order, so the result is the same
         with any domain count (and with tracing enabled, where the map
         degrades to a sequential loop). *)
      Par.map_array (fun s -> e.run ~seed:s)
        (Array.init replicas (fun i -> seed + i))

let trace ~name ~seed =
  match find name with
  | Some e ->
      let summary, events = Sink.capture (fun () -> e.run ~seed) in
      (events, summary)
  | None ->
      invalid_arg
        (Printf.sprintf "Runner.trace: unknown protocol %S (known: %s)" name
           (String.concat ", " names))

let summary_to_json s =
  Artifact.Obj
    [
      ("protocol", Artifact.String s.protocol);
      ("model", Artifact.String s.model);
      ("n", Artifact.Int s.n);
      ("msg_bits", Artifact.Int s.msg_bits);
      ("rounds_used", Artifact.Int s.rounds_used);
      ("channel_bits", Artifact.Int s.channel_bits);
      ( "random_bits",
        Artifact.List
          (Array.to_list (Array.map (fun b -> Artifact.Int b) s.random_bits)) );
      ("transcript_length", Artifact.Int s.transcript_length);
    ]

let trace_artifact ~name ~seed =
  let events, summary = trace ~name ~seed in
  Artifact.make ~kind:"trace" ~id:name ~seed
    ~params:[ ("protocol", Artifact.String name) ]
    (Artifact.Obj
       [
         ("summary", summary_to_json summary);
         ("event_count", Artifact.Int (List.length events));
         ("events", Artifact.List (List.map Sink.event_to_json events));
       ])
