(* Tests for the BCAST simulator: transcripts, the runner, randomness
   accounting, and the sequential-turn model. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Transcript --- *)

let test_transcript_append () =
  let t = Transcript.empty ~msg_bits:1 in
  check_int "empty" 0 (Transcript.length t);
  let t = Transcript.append t [| 1; 0 |] in
  check_int "two entries" 2 (Transcript.length t);
  check_int "bit length" 2 (Transcript.bit_length t);
  let e = Transcript.entry t 0 in
  check_int "first sender" 0 e.Transcript.sender;
  check_int "first value" 1 e.Transcript.value

let test_transcript_value_range () =
  let t = Transcript.empty ~msg_bits:2 in
  let t = Transcript.append t [| 3 |] in
  check_int "max value ok" 1 (Transcript.length t);
  Alcotest.check_raises "too large"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Transcript.append t [| 0; 4 |]))

let test_transcript_persistence () =
  (* Functional append: the original is unchanged, and the appended
     round is a copy the caller may overwrite. *)
  let t0 = Transcript.empty ~msg_bits:1 in
  let round = [| 1 |] in
  let t1 = Transcript.append t0 round in
  round.(0) <- 0;
  check_int "t0 still empty" 0 (Transcript.length t0);
  check_int "t1 has one" 1 (Transcript.length t1);
  check_int "t1 kept its copy" 1 (Transcript.entry t1 0).Transcript.value

let test_transcript_keys () =
  let t1 = Transcript.append (Transcript.empty ~msg_bits:1) [| 1 |] in
  let t2 = Transcript.append (Transcript.empty ~msg_bits:1) [| 1 |] in
  let t3 = Transcript.append (Transcript.empty ~msg_bits:1) [| 0 |] in
  check_string "equal keys" (Transcript.key t1) (Transcript.key t2);
  check_bool "different keys" true (Transcript.key t1 <> Transcript.key t3)

let test_transcript_selectors () =
  let t = Transcript.empty ~msg_bits:1 in
  let t = Transcript.append t [| 1; 0 |] in
  let t = Transcript.append t [| 1; 1 |] in
  Alcotest.(check (list (pair int int)))
    "round 0" [ (0, 1); (1, 0) ]
    (Transcript.messages_of_round t 0);
  Alcotest.(check (list (pair int int)))
    "sender 0" [ (0, 1); (2, 1) ]
    (Transcript.messages_of_sender t 0);
  let e = Transcript.entry t 3 in
  Alcotest.(check (list int))
    "turn, round, sender of the last entry" [ 3; 1; 1 ]
    [ e.Transcript.turn; e.Transcript.round; e.Transcript.sender ];
  let p = Transcript.prefix t 3 in
  check_int "prefix" 3 (Transcript.length p);
  Alcotest.(check (list (pair int int)))
    "prefix cuts inside a round" [ (0, 1) ]
    (Transcript.messages_of_round p 1);
  let cut = Transcript.append (Transcript.empty ~msg_bits:1) [| 1; 0 |] in
  check_string "prefix key"
    (Transcript.key (Transcript.append cut [| 1 |]))
    (Transcript.key p)

(* --- Rand_counter --- *)

let test_rand_counter_counts () =
  let r = Bcast.Rand_counter.make (Prng.create 1) in
  ignore (Bcast.Rand_counter.bool r);
  check_int "1 bit" 1 (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bits r 7);
  check_int "8 bits" 8 (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bitvec r 20);
  check_int "28 bits" 28 (Bcast.Rand_counter.bits_used r)

let test_rand_counter_deterministic_raises () =
  let r = Bcast.Rand_counter.deterministic () in
  Alcotest.check_raises "raises"
    (Failure "Rand_counter: deterministic processor drew randomness") (fun () ->
      ignore (Bcast.Rand_counter.bool r))

let test_rand_counter_tape () =
  let tape = Bitvec.of_string "1011" in
  let r = Bcast.Rand_counter.of_tape tape in
  check_bool "bit 0" true (Bcast.Rand_counter.bool r);
  check_bool "bit 1" false (Bcast.Rand_counter.bool r);
  check_bool "bit 2" true (Bcast.Rand_counter.bool r);
  check_bool "bit 3" true (Bcast.Rand_counter.bool r);
  Alcotest.check_raises "exhausted" (Failure "Rand_counter: tape exhausted") (fun () ->
      ignore (Bcast.Rand_counter.bool r))

let test_rand_counter_int_below () =
  let r = Bcast.Rand_counter.make (Prng.create 3) in
  for _ = 1 to 200 do
    let v = Bcast.Rand_counter.int_below r 5 in
    check_bool "range" true (v >= 0 && v < 5)
  done;
  check_int "bound 1 free" 0 (Bcast.Rand_counter.int_below r 1)

(* Regression: int_below charges exactly ceil(log2 bound) bits per
   rejection-sampling attempt.  A fixed tape makes the attempts visible:
   bound 5 draws 3-bit values, "111" = 7 is rejected, "001" = 4 accepted. *)
let test_int_below_charge_per_attempt () =
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "111001") in
  check_int "second attempt accepted" 4 (Bcast.Rand_counter.int_below r 5);
  check_int "3 bits per attempt, 2 attempts" 6 (Bcast.Rand_counter.bits_used r);
  (* Power-of-two bound: every 3-bit value is below 8, so one attempt. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "101") in
  check_int "value" 5 (Bcast.Rand_counter.int_below r 8);
  check_int "single attempt" 3 (Bcast.Rand_counter.bits_used r);
  (* bound 2 is a single 1-bit draw. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.of_string "1") in
  check_int "coin" 1 (Bcast.Rand_counter.int_below r 2);
  check_int "one bit" 1 (Bcast.Rand_counter.bits_used r)

(* Regression: bernoulli charges exactly [bernoulli_bits] = 30 bits per
   call, independent of p and of the outcome. *)
let test_bernoulli_charge () =
  check_int "documented charge" 30 Bcast.Rand_counter.bernoulli_bits;
  let r = Bcast.Rand_counter.make (Prng.create 17) in
  ignore (Bcast.Rand_counter.bernoulli r 0.3);
  check_int "one call" Bcast.Rand_counter.bernoulli_bits
    (Bcast.Rand_counter.bits_used r);
  ignore (Bcast.Rand_counter.bernoulli r 0.0);
  ignore (Bcast.Rand_counter.bernoulli r 1.0);
  check_int "every call, any p" (3 * Bcast.Rand_counter.bernoulli_bits)
    (Bcast.Rand_counter.bits_used r);
  (* Extreme probabilities are decided, never free. *)
  let r = Bcast.Rand_counter.make (Prng.create 18) in
  check_bool "p=0 false" false (Bcast.Rand_counter.bernoulli r 0.0);
  check_bool "p=1 true" true (Bcast.Rand_counter.bernoulli r 1.0);
  check_int "still charged" (2 * Bcast.Rand_counter.bernoulli_bits)
    (Bcast.Rand_counter.bits_used r);
  (* An all-zero tape draws threshold value 0: true for any p > 0. *)
  let r = Bcast.Rand_counter.of_tape (Bitvec.create 30) in
  check_bool "zero tape" true (Bcast.Rand_counter.bernoulli r 0.0001);
  check_int "tape charged" 30 (Bcast.Rand_counter.bits_used r)

(* --- Bcast runner --- *)

(* Everyone broadcasts its input bit for round r; output = count of 1s seen. *)
let sum_protocol ~rounds =
  {
    Bcast.name = "sum";
    msg_bits = 1;
    rounds;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input ~rand:_ ->
        let total = ref 0 in
        {
          Bcast.send = (fun ~round -> if Bitvec.get input round then 1 else 0);
          receive =
            (fun ~round:_ messages -> Array.iter (fun v -> total := !total + v) messages);
          finish = (fun () -> !total);
        });
  }

let test_run_basic () =
  let inputs = Array.map Bitvec.of_string [| "10"; "11"; "01" |] in
  let result = Bcast.run_deterministic (sum_protocol ~rounds:2) ~inputs in
  (* Round 0 bits: 1,1,0; round 1 bits: 0,1,1 -> total 4 for everyone. *)
  Array.iter (fun o -> check_int "sum" 4 o) result.Bcast.outputs;
  check_int "rounds" 2 result.Bcast.rounds_used;
  check_int "broadcast bits" 6 result.Bcast.broadcast_bits;
  check_int "transcript length" 6 (Transcript.length result.Bcast.transcript)

let test_transcript_contents () =
  let inputs = Array.map Bitvec.of_string [| "1"; "0" |] in
  let result = Bcast.run_deterministic (sum_protocol ~rounds:1) ~inputs in
  let entries = Transcript.entries result.Bcast.transcript in
  Alcotest.(check (list (pair int int)))
    "senders and values"
    [ (0, 1); (1, 0) ]
    (List.map (fun e -> (e.Transcript.sender, e.Transcript.value)) entries)

let test_run_random_bits_accounted () =
  let proto =
    {
      Bcast.name = "coin-flipper";
      msg_bits = 1;
      rounds = 3;
      start =
        Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 4 (fun _ -> Bitvec.create 1) in
  let result = Bcast.run proto ~inputs ~rand:(Prng.create 5) in
  Array.iter (fun b -> check_int "3 bits each" 3 b) result.Bcast.random_bits

let test_run_reproducible () =
  let proto =
    {
      Bcast.name = "coins";
      msg_bits = 1;
      rounds = 4;
      start =
        Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  let r1 = Bcast.run proto ~inputs ~rand:(Prng.create 9) in
  let r2 = Bcast.run proto ~inputs ~rand:(Prng.create 9) in
  check_string "same transcript" (Transcript.key r1.Bcast.transcript)
    (Transcript.key r2.Bcast.transcript)

let test_same_round_isolation () =
  (* A processor must not see round-r messages when sending in round r:
     everyone echoes the previous round's message from processor 0. *)
  let proto =
    {
      Bcast.name = "echo";
      msg_bits = 1;
      rounds = 2;
      start =
        Bcast.spawn_only (fun ~id ~n:_ ~input:_ ~rand:_ ->
          let last_seen = ref 0 in
          {
            Bcast.send =
              (fun ~round -> if round = 0 then (if id = 0 then 1 else 0) else !last_seen);
            receive = (fun ~round:_ messages -> last_seen := messages.(0));
            finish = (fun () -> !last_seen);
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  let result = Bcast.run_deterministic proto ~inputs in
  (* Round 0: proc 0 sends 1. Round 1: everyone echoes 1. *)
  let round1 = Transcript.messages_of_round result.Bcast.transcript 1 in
  List.iter (fun (_, v) -> check_int "echoed" 1 v) round1

(* The transcript and the public state take their round before any
   processor receives it, so a processor that overwrites the shared
   [messages] array changes neither. *)
let test_overwritten_messages () =
  let proto ~overwrite =
    {
      Bcast.name = "overwriter";
      msg_bits = 2;
      rounds = 3;
      start =
        (fun ~n ->
          let seen = ref 0 in
          {
            Bcast.spawn =
              (fun ~id ~input:_ ~rand:_ ->
                {
                  Bcast.send = (fun ~round -> (id + round) mod 4);
                  receive =
                    (fun ~round:_ messages ->
                      if overwrite && id = 0 then Array.fill messages 0 n 3);
                  finish = (fun () -> !seen);
                });
            public =
              (fun ~round:_ messages ->
                seen := !seen + Array.fold_left ( + ) 0 messages);
          });
    }
  in
  let inputs = Array.init 5 (fun _ -> Bitvec.create 1) in
  let clean = Bcast.run_deterministic (proto ~overwrite:false) ~inputs in
  let dirty = Bcast.run_deterministic (proto ~overwrite:true) ~inputs in
  check_string "transcript unchanged" (Transcript.key clean.Bcast.transcript)
    (Transcript.key dirty.Bcast.transcript);
  Alcotest.(check (list (pair int int)))
    "round 1 as sent"
    [ (0, 1); (1, 2); (2, 3); (3, 0); (4, 1) ]
    (Transcript.messages_of_round dirty.Bcast.transcript 1);
  Alcotest.(check (array int)) "public state unchanged" clean.Bcast.outputs
    dirty.Bcast.outputs

let test_map_output () =
  let proto = Bcast.map_output (fun s -> s * 10) (sum_protocol ~rounds:1) in
  let inputs = Array.map Bitvec.of_string [| "1"; "1" |] in
  let result = Bcast.run_deterministic proto ~inputs in
  check_int "mapped" 20 result.Bcast.outputs.(0)

let test_with_rounds () =
  let proto = Bcast.with_rounds 1 (sum_protocol ~rounds:2) in
  let inputs = Array.map Bitvec.of_string [| "11"; "11" |] in
  let result = Bcast.run_deterministic proto ~inputs in
  check_int "truncated" 1 result.Bcast.rounds_used

let test_msg_bits_for_log_n () =
  check_int "n=2" 1 (Bcast.msg_bits_for_log_n 2);
  check_int "n=3" 2 (Bcast.msg_bits_for_log_n 3);
  check_int "n=8" 3 (Bcast.msg_bits_for_log_n 8);
  check_int "n=9" 4 (Bcast.msg_bits_for_log_n 9)

let test_no_processors () =
  Alcotest.check_raises "empty" (Invalid_argument "Bcast.run: no processors") (fun () ->
      ignore (Bcast.run_deterministic (sum_protocol ~rounds:1) ~inputs:[||]))

(* --- Turn model --- *)

let xor_protocol n =
  (* Processor i broadcasts the parity of its input; later processors xor in
     what they heard so far. *)
  Turn_model.of_round_protocol ~n ~rounds:1 (fun ~id:_ ~input ~history ->
      let own = Bitvec.popcount input land 1 = 1 in
      Array.fold_left (fun acc b -> acc <> b) own history)

let test_turn_model_run () =
  let proto = xor_protocol 3 in
  let inputs = Array.map Bitvec.of_string [| "110"; "100"; "111" |] in
  let tr = Turn_model.run proto ~inputs in
  check_int "turn count" 3 (Array.length tr);
  (* t0: parity(110)=0 -> false. t1: parity(100)=1 xor false = true.
     t2: parity(111)=1 xor (false xor true) = false. *)
  Alcotest.(check (array bool)) "bits" [| false; true; false |] tr

let test_turn_model_key () =
  check_string "key" "010" (Turn_model.transcript_key [| false; true; false |])

let test_exact_transcript_dist () =
  (* One processor, input uniform over {0,1}: the broadcast-bit distribution
     is uniform. *)
  let proto =
    { Turn_model.n = 1; turns = 1;
      next_bit = (fun ~id:_ ~input ~history:_ -> Bitvec.get input 0) }
  in
  let input_dist =
    Dist.uniform [ [| Bitvec.of_string "0" |]; [| Bitvec.of_string "1" |] ]
  in
  let d = Turn_model.exact_transcript_dist proto input_dist in
  Alcotest.(check (float 1e-9)) "half" 0.5 (Dist.prob d "1")

let test_consistent_inputs () =
  let proto =
    { Turn_model.n = 2; turns = 4;
      next_bit = (fun ~id:_ ~input ~history:_ -> Bitvec.get input 0) }
  in
  let candidates = [ Bitvec.of_string "01"; Bitvec.of_string "11" ] in
  (* Processor 0 spoke at turn 0 with bit 0 of its input.  History says it
     broadcast 'true'. *)
  let consistent =
    Turn_model.consistent_inputs proto ~id:0
      ~history:[| true; false; true; false |]
      ~upto_turn:2 candidates
  in
  check_int "only the 1-prefixed input" 1 (List.length consistent);
  (* With upto_turn 0 nothing is constrained. *)
  let all =
    Turn_model.consistent_inputs proto ~id:0 ~history:[| true |] ~upto_turn:0 candidates
  in
  check_int "unconstrained" 2 (List.length all)

let test_sampled_matches_exact () =
  let proto = xor_protocol 2 in
  let g = Prng.create 17 in
  let sample g = [| Prng.bitvec g 2; Prng.bitvec g 2 |] in
  let sampled = Turn_model.sampled_transcript_dist proto ~sample ~samples:20000 g in
  (* Exact: enumerate the 16 joint inputs. *)
  let inputs =
    List.concat_map
      (fun a -> List.map (fun b ->
           [| Bitvec.of_int ~width:2 a; Bitvec.of_int ~width:2 b |])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let exact = Turn_model.exact_transcript_dist proto (Dist.uniform inputs) in
  check_bool "TV small" true (Dist.tv_distance sampled exact < 0.03)

let test_acceptance_probability () =
  let proto = xor_protocol 2 in
  let inputs =
    List.concat_map
      (fun a -> List.map (fun b ->
           [| Bitvec.of_int ~width:2 a; Bitvec.of_int ~width:2 b |])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let p =
    Turn_model.acceptance_probability proto
      ~accept:(fun tr -> tr.(0))
      (Dist.uniform inputs)
  in
  Alcotest.(check (float 1e-9)) "first bit balanced" 0.5 p

(* --- qcheck --- *)

let prop_prefix_consistency =
  QCheck.Test.make ~name:"truncated protocol produces transcript prefixes" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 3 in
      let inputs = Array.init 3 (fun _ -> Prng.bitvec g 3) in
      let full = Turn_model.run proto ~inputs in
      let short = Turn_model.run { proto with Turn_model.turns = 2 } ~inputs in
      Array.length short = 2 && short.(0) = full.(0) && short.(1) = full.(1))

let prop_exact_dist_mass =
  QCheck.Test.make ~name:"exact transcript distribution has unit mass" ~count:30
    QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 2 in
      let inputs =
        List.init 8 (fun _ -> [| Prng.bitvec g 2; Prng.bitvec g 2 |])
      in
      let d = Turn_model.exact_transcript_dist proto (Dist.uniform inputs) in
      let mass =
        List.fold_left (fun acc k -> acc +. Dist.prob d k) 0.0 (Dist.support d)
      in
      Float.abs (mass -. 1.0) < 1e-9)

let prop_transcript_key_faithful =
  QCheck.Test.make ~name:"transcript keys distinguish different bit strings" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 12) bool) (list_of_size (Gen.int_range 1 12) bool))
    (fun (a, b) ->
      let ka = Turn_model.transcript_key (Array.of_list a) in
      let kb = Turn_model.transcript_key (Array.of_list b) in
      (a = b) = (ka = kb))

let prop_run_deterministic_in_inputs =
  QCheck.Test.make ~name:"turn model runs are deterministic" ~count:50 QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let proto = xor_protocol 3 in
      let inputs = Array.init 3 (fun _ -> Prng.bitvec g 3) in
      Turn_model.run proto ~inputs = Turn_model.run proto ~inputs)

let () =
  Alcotest.run "bcast"
    [
      ( "transcript",
        [
          Alcotest.test_case "append" `Quick test_transcript_append;
          Alcotest.test_case "value range" `Quick test_transcript_value_range;
          Alcotest.test_case "persistence" `Quick test_transcript_persistence;
          Alcotest.test_case "keys" `Quick test_transcript_keys;
          Alcotest.test_case "selectors" `Quick test_transcript_selectors;
        ] );
      ( "rand_counter",
        [
          Alcotest.test_case "counts bits" `Quick test_rand_counter_counts;
          Alcotest.test_case "deterministic raises" `Quick test_rand_counter_deterministic_raises;
          Alcotest.test_case "tape source" `Quick test_rand_counter_tape;
          Alcotest.test_case "int_below" `Quick test_rand_counter_int_below;
          Alcotest.test_case "int_below charge per attempt" `Quick
            test_int_below_charge_per_attempt;
          Alcotest.test_case "bernoulli exact charge" `Quick test_bernoulli_charge;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic run" `Quick test_run_basic;
          Alcotest.test_case "transcript contents" `Quick test_transcript_contents;
          Alcotest.test_case "random bits accounted" `Quick test_run_random_bits_accounted;
          Alcotest.test_case "reproducible" `Quick test_run_reproducible;
          Alcotest.test_case "same round isolation" `Quick test_same_round_isolation;
          Alcotest.test_case "overwritten messages" `Quick test_overwritten_messages;
          Alcotest.test_case "map_output" `Quick test_map_output;
          Alcotest.test_case "with_rounds" `Quick test_with_rounds;
          Alcotest.test_case "msg_bits_for_log_n" `Quick test_msg_bits_for_log_n;
          Alcotest.test_case "no processors" `Quick test_no_processors;
        ] );
      ( "turn model",
        [
          Alcotest.test_case "run" `Quick test_turn_model_run;
          Alcotest.test_case "key" `Quick test_turn_model_key;
          Alcotest.test_case "exact transcript dist" `Quick test_exact_transcript_dist;
          Alcotest.test_case "consistent inputs" `Quick test_consistent_inputs;
          Alcotest.test_case "sampled matches exact" `Quick test_sampled_matches_exact;
          Alcotest.test_case "acceptance probability" `Quick test_acceptance_probability;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_prefix_consistency;
            prop_exact_dist_mass;
            prop_transcript_key_faithful;
            prop_run_deterministic_in_inputs;
          ] );
    ]
