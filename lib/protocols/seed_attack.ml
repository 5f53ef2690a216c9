let rounds ~k = k + 1

(* Every processor broadcasts bit [round] of its input. *)
let send_bit input ~round = if Bitvec.get input round then 1 else 0

(* Both protocols are a referee's check of the transcript, so the system
   they test is the run's public state: collected once from the
   broadcasts, and tested once, on the first read after the last round.
   Processors only read the verdict. *)

let protocol ~k =
  {
    Bcast.name = Printf.sprintf "seed-attack(k=%d)" k;
    msg_bits = 1;
    rounds = rounds ~k;
    start =
      (fun ~n ->
        (* seeds.(i) collects processor i's first k bits; bit i of last
           its (k+1)-st bit. *)
        let seeds = Array.init n (fun _ -> Bitvec.create k) in
        let last = Bitvec.create n in
        (* Consistent with the PRG iff [X v = b] is solvable, where row i
           of X is processor i's seed and b_i its extra bit. *)
        let consistent =
          lazy (Option.is_some (Gf2_matrix.solve (Gf2_matrix.of_rows seeds) last))
        in
        {
          Bcast.spawn =
            (fun ~id:_ ~input ~rand:_ ->
              if Bitvec.length input < k + 1 then
                invalid_arg "Seed_attack: inputs must have at least k+1 bits";
              {
                Bcast.send = send_bit input;
                receive = (fun ~round:_ _ -> ());
                finish = (fun () -> Lazy.force consistent);
              });
          public =
            (fun ~round messages ->
              Array.iteri
                (fun i v ->
                  if round < k then Bitvec.set seeds.(i) round (v = 1)
                  else Bitvec.set last i (v = 1))
                messages);
        });
  }

let rank_test_protocol ~rounds =
  {
    Bcast.name = Printf.sprintf "rank-test(rounds=%d)" rounds;
    msg_bits = 1;
    rounds;
    start =
      (fun ~n ->
        let observed = Gf2_matrix.create ~rows:n ~cols:rounds in
        let deficient = lazy (Gf2_matrix.rank observed < min n rounds) in
        {
          Bcast.spawn =
            (fun ~id:_ ~input ~rand:_ ->
              if Bitvec.length input < rounds then
                invalid_arg "Seed_attack.rank_test: inputs shorter than round budget";
              {
                Bcast.send = send_bit input;
                receive = (fun ~round:_ _ -> ());
                finish = (fun () -> Lazy.force deficient);
              });
          public =
            (fun ~round messages ->
              Array.iteri (fun i v -> Gf2_matrix.set observed i round (v = 1)) messages);
        });
  }

let declares_pseudo ~params ~inputs g =
  let proto = protocol ~k:params.Full_prg.k in
  let result = Bcast.run proto ~inputs ~rand:g in
  result.Bcast.outputs.(0)

(* Both Monte-Carlo estimates fan their trials out via [Par], one
   [Prng.split] child per trial: results depend on [g]'s seed only, not
   on the domain count, and [g] is never advanced. *)

let advantage ~params ~trials g =
  let hits_pseudo, hits_rand =
    Par.map_reduce g ~trials ~init:(0, 0)
      ~f:(fun ~trial:_ gt ->
        let pseudo, _ = Full_prg.sample_inputs_pseudo gt params in
        let hp = if declares_pseudo ~params ~inputs:pseudo gt then 1 else 0 in
        let random = Full_prg.sample_inputs_rand gt params in
        let hr = if declares_pseudo ~params ~inputs:random gt then 1 else 0 in
        (hp, hr))
      ~reduce:(fun (ap, ar) (hp, hr) -> (ap + hp, ar + hr))
  in
  float_of_int (hits_pseudo - hits_rand) /. float_of_int trials

let false_positive_rate ~params ~trials g =
  let hits =
    Par.map_reduce g ~trials ~init:0
      ~f:(fun ~trial:_ gt ->
        let random = Full_prg.sample_inputs_rand gt params in
        if declares_pseudo ~params ~inputs:random gt then 1 else 0)
      ~reduce:( + )
  in
  float_of_int hits /. float_of_int trials
