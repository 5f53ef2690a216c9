(* Tests for protocol combinators, Fourier influences, and CSV export. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let count_ones_protocol ~rounds =
  (* Broadcast input bit r in round r; output = total ones seen. *)
  {
    Bcast.name = "count-ones";
    msg_bits = 1;
    rounds;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let total = ref 0 in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive = (fun ~round:_ messages -> Array.iter (fun v -> total := !total + v) messages);
          finish = (fun () -> !total);
        });
  }

let max_bit_protocol =
  (* One round: broadcast bit 0; output = max seen. *)
  {
    Bcast.name = "max-bit";
    msg_bits = 1;
    rounds = 1;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let best = ref 0 in
        {
          Bcast.send = (fun ~round:_ -> if Bitvec.get input 0 then 1 else 0);
          receive = (fun ~round:_ messages -> Array.iter (fun v -> best := max !best v) messages);
          finish = (fun () -> !best);
        });
  }

let inputs3 = Array.map Bitvec.of_string [| "101"; "011"; "110" |]

let test_sequential () =
  let proto = Bcast.sequential (count_ones_protocol ~rounds:2) max_bit_protocol in
  check_int "rounds add" 3 proto.Bcast.rounds;
  let r = Bcast.run_deterministic proto ~inputs:inputs3 in
  let count, best = r.Bcast.outputs.(0) in
  (* Round 0 bits: 1,0,1; round 1: 0,1,1 -> 4 ones. max bit0 = 1. *)
  check_int "first output" 4 count;
  check_int "second output" 1 best

let test_sequential_width_mismatch () =
  let wide = { max_bit_protocol with Bcast.msg_bits = 2 } in
  Alcotest.check_raises "width" (Invalid_argument "Bcast.sequential: msg_bits mismatch")
    (fun () -> ignore (Bcast.sequential max_bit_protocol wide))

let test_parallel_pair () =
  let proto = Bcast.parallel_pair (count_ones_protocol ~rounds:2) max_bit_protocol in
  check_int "rounds max" 2 proto.Bcast.rounds;
  check_int "width sums" 2 proto.Bcast.msg_bits;
  let r = Bcast.run_deterministic proto ~inputs:inputs3 in
  let count, best = r.Bcast.outputs.(0) in
  check_int "lane 1 unchanged" 4 count;
  check_int "lane 2 unchanged" 1 best;
  (* Transcript carries the packed values. *)
  check_int "messages per run" 6 (Transcript.length r.Bcast.transcript)

let test_parallel_pair_matches_solo () =
  (* Each lane's output equals its standalone run. *)
  let solo1 = Bcast.run_deterministic (count_ones_protocol ~rounds:2) ~inputs:inputs3 in
  let solo2 = Bcast.run_deterministic max_bit_protocol ~inputs:inputs3 in
  let both =
    Bcast.run_deterministic
      (Bcast.parallel_pair (count_ones_protocol ~rounds:2) max_bit_protocol)
      ~inputs:inputs3
  in
  Array.iteri
    (fun i (a, b) ->
      check_int "lane1" solo1.Bcast.outputs.(i) a;
      check_int "lane2" solo2.Bcast.outputs.(i) b)
    both.Bcast.outputs

let test_parallel_width_limit () =
  let wide = { max_bit_protocol with Bcast.msg_bits = 16 } in
  Alcotest.check_raises "combined width"
    (Invalid_argument "Bcast.parallel_pair: combined width > 30") (fun () ->
      ignore (Bcast.parallel_pair wide { wide with Bcast.msg_bits = 15 }))

(* --- influences --- *)

let test_influence_dictator () =
  let f = Boolfun.dictator 5 2 in
  checkf "own coordinate" 1.0 (Fourier.influence f 2);
  checkf "other coordinate" 0.0 (Fourier.influence f 0);
  checkf "total" 1.0 (Fourier.total_influence f)

let test_influence_parity () =
  (* Every coordinate of a full parity flips the output. *)
  let f = Boolfun.parity 4 [ 0; 1; 2; 3 ] in
  for i = 0 to 3 do
    checkf "parity influence" 1.0 (Fourier.influence f i)
  done;
  checkf "total = n" 4.0 (Fourier.total_influence f)

let test_influence_constant () =
  checkf "constants are immune" 0.0 (Fourier.total_influence (Boolfun.const 6 true))

let test_spectral_identity () =
  let g = Prng.create 5 in
  List.iter
    (fun f ->
      checkf "combinatorial = spectral" (Fourier.total_influence f)
        (Fourier.spectral_total_influence f))
    [ Boolfun.majority 7; Boolfun.random g 7; Boolfun.dictator 7 3;
      Boolfun.parity 7 [ 1; 4 ]; Boolfun.threshold 7 2 ]

let test_majority_influence_shape () =
  (* Majority influences are equal across coordinates and total
     Theta(sqrt n). *)
  let f = Boolfun.majority 9 in
  let i0 = Fourier.influence f 0 in
  for i = 1 to 8 do
    checkf "symmetric" i0 (Fourier.influence f i)
  done;
  let total = Fourier.total_influence f in
  check_bool "Theta(sqrt n)" true (total > 1.0 && total < 2.0 *. Float.sqrt 9.0)

(* --- CSV --- *)

let test_csv_roundtrip_shape () =
  let t = Experiments.e1_lemma_1_10 ~seed:1 () in
  let csv = Experiments.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "rows + header" (List.length t.Experiments.rows + 1) (List.length lines);
  (match lines with
  | header :: _ ->
      check_int "columns" (List.length t.Experiments.columns)
        (List.length (String.split_on_char ',' header))
  | [] -> Alcotest.fail "empty csv")

let test_csv_escaping () =
  let t =
    {
      Experiments.id = "x";
      title = "t";
      columns = [ "a"; "b" ];
      rows = [ [ "plain"; "has,comma" ]; [ "has\"quote"; "fine" ] ];
      notes = [];
    }
  in
  let csv = Experiments.to_csv t in
  check_bool "comma quoted" true
    (String.length csv > 0
    && (let lines = String.split_on_char '\n' csv in
        List.nth lines 1 = "plain,\"has,comma\""
        && List.nth lines 2 = "\"has\"\"quote\",fine"))

let () =
  Alcotest.run "combinators"
    [
      ( "protocol combinators",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "sequential width" `Quick test_sequential_width_mismatch;
          Alcotest.test_case "parallel pair" `Quick test_parallel_pair;
          Alcotest.test_case "parallel matches solo" `Quick test_parallel_pair_matches_solo;
          Alcotest.test_case "parallel width limit" `Quick test_parallel_width_limit;
        ] );
      ( "influences",
        [
          Alcotest.test_case "dictator" `Quick test_influence_dictator;
          Alcotest.test_case "parity" `Quick test_influence_parity;
          Alcotest.test_case "constant" `Quick test_influence_constant;
          Alcotest.test_case "spectral identity" `Quick test_spectral_identity;
          Alcotest.test_case "majority shape" `Quick test_majority_influence_shape;
        ] );
      ( "csv",
        [
          Alcotest.test_case "shape" `Quick test_csv_roundtrip_shape;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
        ] );
    ]
