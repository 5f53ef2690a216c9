let extend ~x ~b =
  if Bitvec.length x <> Bitvec.length b then invalid_arg "Toy_prg.extend: length mismatch";
  let r = Bitvec.create (Bitvec.length x + 1) in
  Bitvec.blit ~src:x ~src_pos:0 ~dst:r ~dst_pos:0 ~len:(Bitvec.length x);
  Bitvec.set r (Bitvec.length x) (Bitvec.dot x b);
  r

let sample_ub g ~b = extend ~x:(Prng.bitvec g (Bitvec.length b)) ~b

let sample_inputs_pseudo g ~n ~k =
  let b = Prng.bitvec g k in
  (Array.init n (fun _ -> sample_ub g ~b), b)

let sample_inputs_rand g ~n ~k = Array.init n (fun _ -> Prng.bitvec g (k + 1))

let construction_protocol ~k =
  {
    Bcast.name = Printf.sprintf "toy-prg-construction(k=%d)" k;
    msg_bits = 1;
    rounds = k;
    start =
      Bcast.spawn_only (fun ~id ~n ~input:_ ~rand ->
        (* The private seed [x]; drawn up front so the bit accounting shows
           exactly k bits plus the contributed shares. *)
        let x = Bcast.Rand_counter.bitvec rand k in
        let b = Bitvec.create k in
        {
          Bcast.send =
            (fun ~round ->
              if round mod n = id then if Bcast.Rand_counter.bool rand then 1 else 0
              else 0);
          receive = (fun ~round messages -> Bitvec.set b round (messages.(round mod n) = 1));
          finish = (fun () -> extend ~x ~b);
        });
  }
