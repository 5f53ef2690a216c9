let all_equal inputs =
  Array.for_all (fun x -> Bitvec.equal x inputs.(0)) inputs

let deterministic_protocol ~m =
  {
    Bcast.name = Printf.sprintf "equality-deterministic(m=%d)" m;
    msg_bits = 1;
    rounds = m;
    start =
      Bcast.spawn_only (fun ~id:_ ~n ~input ~rand:_ ->
        let rows = Array.init n (fun _ -> Bitvec.create m) in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive =
            (fun ~round messages ->
              Array.iteri (fun i v -> Bitvec.set rows.(i) round (v = 1)) messages);
          finish = (fun () -> all_equal rows);
        });
  }

let fingerprint_public_coin ~n ~m ~repetitions =
  {
    Newman.name = Printf.sprintf "equality-fingerprint(m=%d,c=%d)" m repetitions;
    coin_bits = repetitions * m;
    run =
      (fun ~coins ~inputs ->
        if Array.length inputs <> n then invalid_arg "Equality: wrong processor count";
        let ok = ref true in
        for rep = 0 to repetitions - 1 do
          let r = Bitvec.sub coins ~pos:(rep * m) ~len:m in
          let first = Bitvec.dot inputs.(0) r in
          Array.iter (fun x -> if Bitvec.dot x r <> first then ok := false) inputs
        done;
        !ok);
  }

let fingerprint_protocol ~m ~repetitions =
  let coin_rounds = repetitions * m in
  {
    Bcast.name = Printf.sprintf "equality-fingerprint-bcast(m=%d,c=%d)" m repetitions;
    msg_bits = 1;
    rounds = coin_rounds + repetitions;
    start =
      Bcast.spawn_only (fun ~id ~n ~input ~rand ->
        let coins = Bitvec.create coin_rounds in
        let fingerprints = Array.make (n * repetitions) false in
        {
          Bcast.send =
            (fun ~round ->
              if round < coin_rounds then
                (* Processor 0 publishes the shared fingerprint vectors. *)
                if id = 0 then if Bcast.Rand_counter.bool rand then 1 else 0 else 0
              else begin
                let rep = round - coin_rounds in
                let r = Bitvec.sub coins ~pos:(rep * m) ~len:m in
                if Bitvec.dot input r then 1 else 0
              end);
          receive =
            (fun ~round messages ->
              if round < coin_rounds then Bitvec.set coins round (messages.(0) = 1)
              else begin
                let rep = round - coin_rounds in
                Array.iteri (fun i v -> fingerprints.((rep * n) + i) <- v = 1) messages
              end);
          finish =
            (fun () ->
              let ok = ref true in
              for rep = 0 to repetitions - 1 do
                for i = 1 to n - 1 do
                  if fingerprints.((rep * n) + i) <> fingerprints.(rep * n) then
                    ok := false
                done
              done;
              !ok);
        });
  }
