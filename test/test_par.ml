(* Tests for the Par domain pool: combinator semantics, the determinism
   contract (tables byte-identical under any domain count), and the
   concurrency hardening of the observability layer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-12))

(* Runs [f] with the pool pinned to [domains], restoring the previous
   size afterwards even if [f] raises. *)
let with_domains domains f =
  let old = Par.domain_count () in
  Par.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Par.set_domain_count old) f

(* ------------------------------------------------- combinator semantics *)

let test_map_trials_order () =
  with_domains 4 (fun () ->
      let g = Prng.create 7 in
      let r = Par.map_trials g ~trials:100 (fun ~trial _g -> trial * trial) in
      check_int "length" 100 (Array.length r);
      Array.iteri (fun t v -> check_int "slot" (t * t) v) r)

let test_map_trials_uses_split () =
  (* Trial [t] must see exactly [Prng.split g t]: compare against a plain
     sequential loop over splits. *)
  with_domains 4 (fun () ->
      let g = Prng.create 99 in
      let expected = Array.init 32 (fun t -> Prng.int (Prng.split g t) 1_000_000) in
      let got =
        Par.map_trials g ~trials:32 (fun ~trial:_ gt -> Prng.int gt 1_000_000)
      in
      Alcotest.(check (array int)) "per-trial generators" expected got)

let test_map_reduce_order () =
  (* A non-commutative reduction exposes any out-of-order fold. *)
  with_domains 4 (fun () ->
      let g = Prng.create 1 in
      let s =
        Par.map_reduce g ~trials:20 ~init:""
          ~f:(fun ~trial _g -> string_of_int trial)
          ~reduce:(fun acc x -> acc ^ "," ^ x)
      in
      let expected =
        List.init 20 string_of_int
        |> List.fold_left (fun acc x -> acc ^ "," ^ x) ""
      in
      check_string "in trial order" expected s)

let test_map_array_order () =
  with_domains 4 (fun () ->
      let input = Array.init 50 (fun i -> i + 1000) in
      let r = Par.map_array (fun x -> x * 2) input in
      Array.iteri (fun i v -> check_int "slot" ((i + 1000) * 2) v) r)

exception Boom of int

let test_exception_propagates () =
  with_domains 4 (fun () ->
      let g = Prng.create 5 in
      match
        Par.map_trials g ~trials:16 (fun ~trial _g ->
            if trial = 11 then raise (Boom trial) else trial)
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 11 -> ()
      | exception e -> raise e);
  (* The pool must survive a failed job and accept the next one. *)
  with_domains 4 (fun () ->
      let g = Prng.create 5 in
      let r = Par.map_trials g ~trials:8 (fun ~trial _g -> trial) in
      check_int "pool alive after failure" 7 r.(7))

let test_nested_calls_sequentialise () =
  (* A trial body that itself calls Par must not deadlock, and the nested
     call must report that it is running inside a lane. *)
  with_domains 4 (fun () ->
      let g = Prng.create 3 in
      let r =
        Par.map_trials g ~trials:8 (fun ~trial gt ->
            let inner =
              Par.map_reduce gt ~trials:4 ~init:0
                ~f:(fun ~trial:t _ -> t)
                ~reduce:( + )
            in
            (trial, inner, Par.parallel_trials_active ()))
      in
      Array.iteri
        (fun t (trial, inner, _active) ->
          check_int "outer trial" t trial;
          check_int "inner sum" 6 inner)
        r);
  check_bool "flag cleared outside pool" false (Par.parallel_trials_active ())

let test_domain_count_clamped () =
  with_domains 1 (fun () -> check_int "floor" 1 (Par.domain_count ()));
  with_domains 0 (fun () -> check_int "clamped up" 1 (Par.domain_count ()));
  with_domains 4 (fun () -> check_int "as set" 4 (Par.domain_count ()))

(* The environment knob is never clamped: a value outside 1..64 (or not
   an integer) raises, naming the range. *)
let test_env_domains_range () =
  let old = Sys.getenv_opt "BCC_DOMAINS" in
  let read v =
    Unix.putenv "BCC_DOMAINS" v;
    match Par.env_domains () with
    | d -> Ok d
    | exception Invalid_argument msg -> Error msg
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BCC_DOMAINS" (Option.value old ~default:""))
    (fun () ->
      let result = Alcotest.(result (option int) string) in
      Alcotest.check result "unset" (Ok None) (read "");
      Alcotest.check result "in range, trimmed" (Ok (Some 7)) (read " 7 ");
      Alcotest.check result "upper end" (Ok (Some 64)) (read "64");
      List.iter
        (fun v ->
          Alcotest.check result ("rejects " ^ v)
            (Error
               (Printf.sprintf "BCC_DOMAINS must be an integer in 1..64, got %S" v))
            (read v))
        [ "abc"; "0"; "-3"; "65"; "999" ])

(* ------------------------------------------------ determinism contract *)

(* The tables the ISSUE pins: E5 (distinguisher advantage), E10 (average-
   case full rank) and the Theorem 8.1 seed attack, for seeds 1, 2 and
   42, must serialise identically under pool sizes 1 and 4. *)

let table_fingerprint f seed = Experiments.to_csv (f ?seed:(Some seed) ())

let test_e5_identical_across_pools () =
  List.iter
    (fun seed ->
      let small = Experiments.e5_distinguisher_advantage ~n:96 in
      let seq = with_domains 1 (fun () -> table_fingerprint small seed) in
      let par = with_domains 4 (fun () -> table_fingerprint small seed) in
      check_string (Printf.sprintf "e5 seed %d" seed) seq par)
    [ 1; 2; 42 ]

let test_e10_identical_across_pools () =
  List.iter
    (fun seed ->
      let f = Experiments.e10_full_rank_average_case in
      let seq = with_domains 1 (fun () -> table_fingerprint f seed) in
      let par = with_domains 4 (fun () -> table_fingerprint f seed) in
      check_string (Printf.sprintf "e10 seed %d" seed) seq par)
    [ 1; 2; 42 ]

let test_seed_attack_identical_across_pools () =
  let params = { Full_prg.n = 48; k = 16; m = 40 } in
  List.iter
    (fun seed ->
      let run () = Seed_attack.advantage ~params ~trials:60 (Prng.create seed) in
      let seq = with_domains 1 run in
      let par = with_domains 4 run in
      checkf (Printf.sprintf "seed-attack seed %d" seed) seq par;
      let fpr () =
        Seed_attack.false_positive_rate ~params ~trials:60 (Prng.create seed)
      in
      checkf
        (Printf.sprintf "false-positive seed %d" seed)
        (with_domains 1 fpr) (with_domains 4 fpr))
    [ 1; 2; 42 ]

let test_replicas_identical_across_pools () =
  let run () =
    Runner.run_replicas ~name:"equality-fp" ~seed:11 ~replicas:6
    |> Array.map (fun s -> s.Runner.channel_bits)
  in
  Alcotest.(check (array int))
    "replica summaries" (with_domains 1 run) (with_domains 4 run)

(* --------------------------------------------------- obs under domains *)

let test_metrics_concurrent_stress () =
  (* Hammer one counter, one histogram and one ratio from trial bodies
     spread over 4 domains; the merged totals must be exact. *)
  with_domains 4 (fun () ->
      Metrics.reset ();
      let c = Metrics.counter "par_test_hits" in
      let h = Metrics.histogram "par_test_obs" in
      let r = Metrics.ratio "par_test_ratio" in
      let trials = 200 and per_trial = 50 in
      let g = Prng.create 123 in
      ignore
        (Par.map_trials g ~trials (fun ~trial _g ->
             for i = 0 to per_trial - 1 do
               Metrics.inc c;
               Metrics.observe h (float_of_int i);
               Metrics.record r ~success:(i land 1 = 0)
             done;
             trial));
      let find name =
        List.find (fun s -> s.Metrics.name = name) (Metrics.snapshot ())
      in
      (match (find "par_test_hits").Metrics.value with
      | Metrics.Counter n -> check_int "counter total" (trials * per_trial) n
      | _ -> Alcotest.fail "counter kind");
      (match (find "par_test_obs").Metrics.value with
      | Metrics.Histogram { count; _ } ->
          check_int "histogram count" (trials * per_trial) count
      | _ -> Alcotest.fail "histogram kind");
      (match (find "par_test_ratio").Metrics.value with
      | Metrics.Ratio { successes; trials = t; _ } ->
          check_int "ratio trials" (trials * per_trial) t;
          check_int "ratio successes" (trials * per_trial / 2) successes
      | _ -> Alcotest.fail "ratio kind");
      Metrics.reset ())

let test_metrics_concurrent_registration () =
  (* First-use registration from several domains at once must neither
     crash nor drop updates. *)
  with_domains 4 (fun () ->
      Metrics.reset ();
      let g = Prng.create 77 in
      ignore
        (Par.map_trials g ~trials:40 (fun ~trial:_ _g ->
             Metrics.inc (Metrics.counter "par_test_race");
             0));
      match
        (List.find
           (fun s -> s.Metrics.name = "par_test_race")
           (Metrics.snapshot ()))
          .Metrics.value
      with
      | Metrics.Counter n -> check_int "all increments kept" 40 n
      | _ -> Alcotest.fail "counter kind")

let test_rand_counter_pinned_to_domain () =
  (* A Rand_counter created here must refuse draws from another domain. *)
  let g = Prng.create 9 in
  let r = Bcast.Rand_counter.make g in
  ignore (Bcast.Rand_counter.bool r);
  let crossed =
    Domain.spawn (fun () ->
        match Bcast.Rand_counter.bool r with
        | _ -> false
        | exception Failure _ -> true)
    |> Domain.join
  in
  check_bool "cross-domain draw rejected" true crossed;
  (* ... and still works on the creator domain afterwards. *)
  ignore (Bcast.Rand_counter.bool r)

let () =
  Alcotest.run "par"
    [
      ( "combinators",
        [
          Alcotest.test_case "map_trials trial order" `Quick test_map_trials_order;
          Alcotest.test_case "map_trials splits per trial" `Quick
            test_map_trials_uses_split;
          Alcotest.test_case "map_reduce folds in order" `Quick
            test_map_reduce_order;
          Alcotest.test_case "map_array preserves order" `Quick
            test_map_array_order;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested calls sequentialise" `Quick
            test_nested_calls_sequentialise;
          Alcotest.test_case "domain count clamped" `Quick
            test_domain_count_clamped;
          Alcotest.test_case "BCC_DOMAINS outside 1..64 raises" `Quick
            test_env_domains_range;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "e5 identical at 1 and 4 domains" `Quick
            test_e5_identical_across_pools;
          Alcotest.test_case "e10 identical at 1 and 4 domains" `Quick
            test_e10_identical_across_pools;
          Alcotest.test_case "seed attack identical at 1 and 4 domains" `Quick
            test_seed_attack_identical_across_pools;
          Alcotest.test_case "replicas identical at 1 and 4 domains" `Quick
            test_replicas_identical_across_pools;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics stress from 4 domains" `Quick
            test_metrics_concurrent_stress;
          Alcotest.test_case "concurrent registration" `Quick
            test_metrics_concurrent_registration;
          Alcotest.test_case "rand counter pinned to domain" `Quick
            test_rand_counter_pinned_to_domain;
        ] );
    ]
