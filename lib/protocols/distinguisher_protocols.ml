type degree_summary = {
  max_total_degree : int;
  total_edges : int;
  degree_variance : float;
}

let degree_protocol ~n =
  let w = Bcast.msg_bits_for_log_n (max 2 n) in
  let summarize degrees =
    let floats = Array.map float_of_int degrees in
    {
      max_total_degree = Array.fold_left max 0 degrees;
      total_edges = Array.fold_left ( + ) 0 degrees;
      degree_variance = Stats.variance floats;
    }
  in
  {
    Bcast.name = Printf.sprintf "degree-summary(n=%d)" n;
    msg_bits = w;
    rounds = 1;
    start =
      (fun ~n:n' ->
        if n' <> n then invalid_arg "Distinguisher_protocols: processor count mismatch";
        (* The summary of the last round's degrees, shared by every
           processor; zeros if no round ran. *)
        let summary = ref None in
        let read () =
          match !summary with Some s -> s | None -> summarize (Array.make n 0)
        in
        {
          Bcast.spawn =
            (fun ~id:_ ~input ~rand:_ ->
              {
                Bcast.send = (fun ~round:_ -> Bitvec.popcount input);
                receive = (fun ~round:_ _ -> ());
                finish = read;
              });
          public = (fun ~round:_ messages -> summary := Some (summarize messages));
        });
  }

let sampled_clique_protocol ~n ~sample_size =
  if sample_size < 1 || sample_size > n then
    invalid_arg "Distinguisher_protocols.sampled_clique_protocol: bad sample size";
  let w = Bcast.msg_bits_for_log_n (max 2 n) in
  let rounds = (sample_size + w - 1) / w in
  {
    Bcast.name = Printf.sprintf "sampled-clique(n=%d,s=%d)" n sample_size;
    msg_bits = w;
    rounds;
    start =
      (fun ~n:n' ->
        if n' <> n then invalid_arg "Distinguisher_protocols: processor count mismatch";
        (* rows.(i) = adjacency of sampled processor i into the sample;
           the clique size is computed on first read, in [finish]. *)
        let rows = Array.init sample_size (fun _ -> Bitvec.create sample_size) in
        let size = ref None in
        let read () =
          match !size with
          | Some s -> s
          | None ->
              let sub = Digraph.create sample_size in
              Array.iteri (fun i r -> Digraph.set_out_row sub i r) rows;
              let s = List.length (Clique.max_clique sub) in
              size := Some s;
              s
        in
        {
          Bcast.spawn =
            (fun ~id ~input ~rand:_ ->
              {
                Bcast.send =
                  (fun ~round ->
                    if id >= sample_size then 0
                    else begin
                      (* Chunk [round] of my adjacency restricted to the sample. *)
                      let v = ref 0 in
                      for b = 0 to w - 1 do
                        let j = (round * w) + b in
                        if j < sample_size && j <> id && Bitvec.get input j then
                          v := !v lor (1 lsl b)
                      done;
                      !v
                    end);
                receive = (fun ~round:_ _ -> ());
                finish = read;
              });
          public =
            (fun ~round messages ->
              for i = 0 to sample_size - 1 do
                for b = 0 to w - 1 do
                  let j = (round * w) + b in
                  if j < sample_size then
                    Bitvec.set rows.(i) j ((messages.(i) lsr b) land 1 = 1)
                done
              done);
        });
  }

let threshold_distinguisher proto ~statistic ~threshold =
  Bcast.map_output (fun summary -> statistic summary > threshold) proto

let measured_gap proto ~n ~k ~trials g =
  Advantage.protocol_gap proto
    ~sample_yes:(fun g ->
      let graph, _ = Planted.sample_planted g ~n ~k in
      Array.init n (Digraph.out_row graph))
    ~sample_no:(fun g ->
      let graph = Planted.sample_rand g n in
      Array.init n (Digraph.out_row graph))
    ~trials g
