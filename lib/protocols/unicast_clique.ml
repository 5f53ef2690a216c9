type outcome = Member | Non_member

let msg_bits_for n = Bcast.msg_bits_for_log_n (max 2 n)

let rounds ~n =
  let w = msg_bits_for n in
  ((n + w - 1) / w) + 1

let recommended_seed_size n = Clique.log_clique_size_bound n + 3

let recovered_set outcomes =
  let acc = ref [] in
  Array.iteri (fun i o -> if o = Member then acc := i :: !acc) outcomes;
  List.rev !acc

let protocol ~n ~seed_size =
  let w = msg_bits_for n in
  let upload_rounds = (n + w - 1) / w in
  let committee_size = min n 3 in
  {
    Unicast.name = Printf.sprintf "unicast-committee-clique(n=%d,seed=%d)" n seed_size;
    msg_bits = w;
    rounds = upload_rounds + 1;
    spawn =
      (fun ~id ~n:n' ~input ~rand:_ ->
        if n' <> n then invalid_arg "Unicast_clique: processor count mismatch";
        let rows =
          if id < committee_size then Some (Array.init n (fun _ -> Bitvec.create n))
          else None
        in
        let verdict = ref Non_member in
        let chunk_of_row ~row ~round =
          let v = ref 0 in
          for b = 0 to w - 1 do
            let pos = (round * w) + b in
            if pos < n && Bitvec.get row pos then v := !v lor (1 lsl b)
          done;
          !v
        in
        let committee_clique rows =
          let g = Digraph.create n in
          Array.iteri (fun i r -> Digraph.set_out_row g i r) rows;
          Clique.quasi_poly_find g ~seed_size
        in
        {
          Unicast.send =
            (fun ~round ->
              if round < upload_rounds then begin
                let chunk = chunk_of_row ~row:input ~round in
                Array.init n (fun j -> if j < committee_size then chunk else 0)
              end
              else begin
                match rows with
                | None -> Array.make n 0
                | Some rows ->
                    let found = committee_clique rows in
                    Array.init n (fun j -> if List.mem j found then 1 else 0)
              end);
          receive =
            (fun ~round inbox ->
              if round < upload_rounds then begin
                match rows with
                | None -> ()
                | Some rows ->
                    Array.iteri
                      (fun sender chunk ->
                        for b = 0 to w - 1 do
                          let pos = (round * w) + b in
                          if pos < n then
                            Bitvec.set rows.(sender) pos ((chunk lsr b) land 1 = 1)
                        done)
                      inbox
              end
              else verdict := if inbox.(0) = 1 then Member else Non_member);
          finish = (fun () -> !verdict);
        });
  }
