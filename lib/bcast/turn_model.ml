type protocol = {
  n : int;
  turns : int;
  next_bit : id:int -> input:Bitvec.t -> history:bool array -> bool;
}

let of_round_protocol ~n ~rounds next_bit = { n; turns = rounds * n; next_bit }

let run proto ~inputs =
  if Array.length inputs <> proto.n then invalid_arg "Turn_model.run: wrong input count";
  let history = Array.make proto.turns false in
  for t = 0 to proto.turns - 1 do
    let id = t mod proto.n in
    let bit = proto.next_bit ~id ~input:inputs.(id) ~history:(Array.sub history 0 t) in
    history.(t) <- bit;
    if Trace.enabled () then
      Trace.emit ~scope:"turn_model" (Trace.Turn { turn = t; speaker = id; bit })
  done;
  history

let transcript_key bits =
  String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')

let exact_transcript_dist proto input_dist =
  Dist.map (fun inputs -> transcript_key (run proto ~inputs)) input_dist

let sampled_transcript_dist proto ~sample ~samples g =
  let counts = Hashtbl.create 1024 in
  for _ = 1 to samples do
    let key = transcript_key (run proto ~inputs:(sample g)) in
    let prev = Option.value (Hashtbl.find_opt counts key) ~default:0 in
    Hashtbl.replace counts key (prev + 1)
  done;
  (* bcc-lint: allow det/hashtbl-order — counts table is filled by a deterministic sample loop, so fold order is reproducible; Dist normalizes per key *)
  Dist.empirical (Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts [])

let consistent_inputs proto ~id ~history ~upto_turn candidates =
  let upto = min upto_turn (Array.length history) in
  List.filter
    (fun input ->
      let ok = ref true in
      let t = ref id in
      (* Processor [id] speaks on turns id, id+n, id+2n, ... *)
      while !ok && !t < upto do
        let bit = proto.next_bit ~id ~input ~history:(Array.sub history 0 !t) in
        if bit <> history.(!t) then ok := false;
        t := !t + proto.n
      done;
      !ok)
    candidates

let acceptance_probability proto ~accept input_dist =
  Dist.expectation input_dist (fun inputs ->
      if accept (run proto ~inputs) then 1.0 else 0.0)
