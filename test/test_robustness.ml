(* Failure-injection tests and newer substrate completeness: a protocol
   misbehaving must fail loudly, never silently corrupt a run; plus GF(2)
   inverse/determinant and the AMS F2 protocol. *)

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- failure injection: the simulator rejects protocol misbehaviour --- *)

let constant_protocol value ~msg_bits =
  {
    Bcast.name = "constant";
    msg_bits;
    rounds = 1;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
        {
          Bcast.send = (fun ~round:_ -> value);
          receive = (fun ~round:_ _ -> ());
          finish = (fun () -> ());
        });
  }

let test_overwide_message_rejected () =
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "message exceeds msg_bits"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Bcast.run_deterministic (constant_protocol 2 ~msg_bits:1) ~inputs))

let test_negative_message_rejected () =
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "negative message"
    (Invalid_argument "Transcript.append: message value out of range") (fun () ->
      ignore (Bcast.run_deterministic (constant_protocol (-1) ~msg_bits:4) ~inputs))

let test_unicast_outbox_size_enforced () =
  let proto =
    {
      Unicast.name = "bad-outbox";
      msg_bits = 1;
      rounds = 1;
      spawn =
        (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
          {
            Unicast.send = (fun ~round:_ -> Array.make 2 0 (* wrong size *));
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 3 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "outbox size" (Invalid_argument "Unicast.run: outbox size mismatch")
    (fun () -> ignore (Unicast.run_deterministic proto ~inputs))

let test_tape_overdraw_fails_loudly () =
  (* A derandomized protocol that draws more bits than the PRG supplies
     must raise, not silently reuse bits. *)
  let greedy =
    {
      Bcast.name = "greedy";
      msg_bits = 1;
      rounds = 1;
      start =
        Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send =
              (fun ~round:_ ->
                (* Draw far beyond the m = 8 tape. *)
                let acc = ref 0 in
                for _ = 1 to 100 do
                  if Bcast.Rand_counter.bool rand then incr acc
                done;
                !acc land 1);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let p = { Full_prg.n = 4; k = 4; m = 8 } in
  let proto = Derandomize.transform p greedy in
  let inputs = Array.init 4 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "tape exhausted" (Failure "Rand_counter: tape exhausted")
    (fun () -> ignore (Bcast.run proto ~inputs ~rand:(Prng.create 1)))

let test_deterministic_runner_rejects_randomized () =
  let coin =
    {
      Bcast.name = "coin";
      msg_bits = 1;
      rounds = 1;
      start =
        Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand ->
          {
            Bcast.send = (fun ~round:_ -> if Bcast.Rand_counter.bool rand then 1 else 0);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let inputs = Array.init 2 (fun _ -> Bitvec.create 1) in
  Alcotest.check_raises "deterministic source"
    (Failure "Rand_counter: deterministic processor drew randomness") (fun () ->
      ignore (Bcast.run_deterministic coin ~inputs))

let test_input_count_mismatch () =
  (* Protocols validating the processor count reject wrong-size runs. *)
  let proto = Full_rank.exact_protocol ~n:8 in
  let inputs = Array.init 5 (fun _ -> Bitvec.create 8) in
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Full_rank: processor count mismatch") (fun () ->
      ignore (Bcast.run_deterministic proto ~inputs))

(* --- GF(2) inverse and determinant --- *)

let test_determinant () =
  check_bool "identity" true (Gf2_matrix.determinant (Gf2_matrix.identity 5));
  check_bool "zero" false (Gf2_matrix.determinant (Gf2_matrix.create ~rows:3 ~cols:3))

let test_inverse_roundtrip () =
  let g = Prng.create 2 in
  let found = ref 0 in
  for trial = 1 to 40 do
    let m = Gf2_matrix.random (Prng.split g trial) ~rows:8 ~cols:8 in
    match Gf2_matrix.inverse m with
    | None -> check_bool "singular iff not full rank" false (Gf2_matrix.is_full_rank m)
    | Some inv ->
        incr found;
        check_bool "M * M^-1 = I" true
          (Gf2_matrix.equal (Gf2_matrix.mul m inv) (Gf2_matrix.identity 8));
        check_bool "M^-1 * M = I" true
          (Gf2_matrix.equal (Gf2_matrix.mul inv m) (Gf2_matrix.identity 8))
  done;
  (* About 29% of random matrices are invertible: expect several. *)
  check_bool "found invertible samples" true (!found > 3)

let test_inverse_identity () =
  match Gf2_matrix.inverse (Gf2_matrix.identity 6) with
  | Some inv -> check_bool "I^-1 = I" true (Gf2_matrix.equal inv (Gf2_matrix.identity 6))
  | None -> Alcotest.fail "identity must be invertible"

(* --- F2 moment protocol --- *)

let test_f2_exact_known () =
  (* Two processors sharing one item: frequencies (2, 1, 0): F2 = 5. *)
  let inputs = [| Bitvec.of_string "110"; Bitvec.of_string "100" |] in
  checkf "F2" 5.0 (F2_moment.exact_f2 inputs)

let test_f2_estimator_unbiased_direction () =
  let g = Prng.create 3 in
  let n = 10 and d = 32 in
  let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split g i) d) in
  let cfg = { F2_moment.d; repetitions = 400; seed = 9 } in
  let err = F2_moment.relative_error cfg inputs (Prng.split g 100) in
  check_bool "relative error reasonable at r=400" true (err < 0.35)

let test_f2_outputs_agree () =
  let g = Prng.create 4 in
  let d = 16 in
  let inputs = Array.init 6 (fun i -> Prng.bitvec (Prng.split g i) d) in
  let cfg = { F2_moment.d; repetitions = 10; seed = 5 } in
  let result = Bcast.run (F2_moment.protocol cfg) ~inputs ~rand:g in
  Array.iter
    (fun o -> checkf "all processors agree" result.Bcast.outputs.(0) o)
    result.Bcast.outputs;
  Alcotest.(check int) "rounds = repetitions" 10 result.Bcast.rounds_used

let test_f2_more_reps_helps () =
  (* Average relative error should shrink with repetitions. *)
  let g = Prng.create 6 in
  let d = 24 and n = 8 in
  let mean_err reps =
    let total = ref 0.0 in
    for t = 1 to 12 do
      let gi = Prng.split g ((reps * 100) + t) in
      let inputs = Array.init n (fun i -> Prng.bitvec (Prng.split gi i) d) in
      let cfg = { F2_moment.d; repetitions = reps; seed = t } in
      total := !total +. F2_moment.relative_error cfg inputs gi
    done;
    !total /. 12.0
  in
  check_bool "r=100 beats r=2" true (mean_err 100 < mean_err 2)

let test_f2_validation () =
  Alcotest.check_raises "bad universe" (Invalid_argument "F2_moment: universe must be nonempty")
    (fun () -> ignore (F2_moment.protocol { F2_moment.d = 0; repetitions = 1; seed = 1 }))

let () =
  Alcotest.run "robustness"
    [
      ( "failure injection",
        [
          Alcotest.test_case "overwide message" `Quick test_overwide_message_rejected;
          Alcotest.test_case "negative message" `Quick test_negative_message_rejected;
          Alcotest.test_case "unicast outbox" `Quick test_unicast_outbox_size_enforced;
          Alcotest.test_case "tape overdraw" `Quick test_tape_overdraw_fails_loudly;
          Alcotest.test_case "deterministic runner" `Quick test_deterministic_runner_rejects_randomized;
          Alcotest.test_case "input count mismatch" `Quick test_input_count_mismatch;
        ] );
      ( "gf2 inverse",
        [
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "inverse roundtrip" `Quick test_inverse_roundtrip;
          Alcotest.test_case "identity" `Quick test_inverse_identity;
        ] );
      ( "f2 moment",
        [
          Alcotest.test_case "exact known" `Quick test_f2_exact_known;
          Alcotest.test_case "estimator accuracy" `Quick test_f2_estimator_unbiased_direction;
          Alcotest.test_case "outputs agree" `Quick test_f2_outputs_agree;
          Alcotest.test_case "repetitions help" `Quick test_f2_more_reps_helps;
          Alcotest.test_case "validation" `Quick test_f2_validation;
        ] );
    ]
