(* Smoke tests for the experiment drivers: every table is well-formed and
   the cheap ones carry their expected verdicts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let well_formed (t : Experiments.table) =
  check_bool "has id" true (String.length t.Experiments.id > 0);
  check_bool "has rows" true (List.length t.Experiments.rows > 0);
  let width = List.length t.Experiments.columns in
  List.iter
    (fun row -> check_int "row width matches columns" width (List.length row))
    t.Experiments.rows

let test_ids_complete () =
  check_int "thirty-one experiments" 31 (List.length Experiments.ids);
  List.iter
    (fun id -> check_bool ("lookup " ^ id) true (Experiments.by_id id <> None))
    Experiments.ids;
  check_bool "unknown id" true (Experiments.by_id "e99" = None);
  check_bool "case insensitive" true (Experiments.by_id "E1" <> None)

let column_index t name =
  let rec go i = function
    | [] -> Alcotest.failf "column %s missing" name
    | c :: _ when c = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.Experiments.columns

let all_rows_hold t =
  let idx = column_index t "holds" in
  List.for_all (fun row -> List.nth row idx = "yes") t.Experiments.rows

let test_e1_holds () =
  let t = Experiments.e1_lemma_1_10 ~seed:7 () in
  well_formed t;
  check_bool "all bounds hold" true (all_rows_hold t)

let test_e2_holds () =
  let t = Experiments.e2_lemma_1_8 ~seed:7 () in
  well_formed t;
  check_bool "all bounds hold" true (all_rows_hold t)

let test_e4_ordering () =
  (* real distance <= progress <= bound in every row. *)
  let t = Experiments.e4_one_round_transcripts ~seed:7 () in
  well_formed t;
  let ireal = column_index t "||P_rand-P_k||" in
  let iprog = column_index t "L_progress" in
  let ibound = column_index t "bound" in
  List.iter
    (fun row ->
      let v i = float_of_string (List.nth row i) in
      check_bool "real <= progress" true (v ireal <= v iprog +. 1e-9);
      check_bool "progress <= bound" true (v iprog <= v ibound +. 1e-9))
    t.Experiments.rows

let test_e6_holds () =
  let t = Experiments.e6_lemma_5_2 ~seed:7 () in
  well_formed t;
  check_bool "all bounds hold" true (all_rows_hold t)

let test_e8_threshold () =
  let t = Experiments.e8_prg_fooling ~seed:7 () in
  well_formed t;
  let iadv = column_index t "advantage" in
  let iregime = column_index t "regime" in
  List.iter
    (fun row ->
      let regime = List.nth row iregime in
      if regime = "<= k (fooled)" then
        check_bool "fooled regime near zero" true
          (Float.abs (float_of_string (List.nth row iadv)) < 0.15)
      else if regime = "> k (broken)" then
        check_bool "broken regime near one" true
          (float_of_string (List.nth row iadv) > 0.85))
    t.Experiments.rows

let test_e9_breaks () =
  let t = Experiments.e9_seed_attack ~seed:7 () in
  well_formed t;
  let iadv = column_index t "advantage" in
  List.iter
    (fun row -> check_bool "attack succeeds" true (float_of_string (List.nth row iadv) > 0.9))
    t.Experiments.rows

let test_e13_one_sided () =
  let t = Experiments.e13_newman ~seed:7 () in
  well_formed t;
  let igap = column_index t "gap on equal" in
  List.iter
    (fun row ->
      check_bool "one-sided: gap 0 on equal inputs" true
        (float_of_string (List.nth row igap) = 0.0))
    t.Experiments.rows

let test_e20_holds () =
  let t = Experiments.e20_structural_inequalities ~seed:7 () in
  well_formed t;
  let idx = column_index t "holds" in
  List.iter
    (fun row ->
      let v = List.nth row idx in
      check_bool "holds or informative" true (v = "yes" || v = "-"))
    t.Experiments.rows

let test_e28_holds () =
  let t = Experiments.e28_toy_prg_exact ~seed:7 () in
  well_formed t;
  check_bool "all exact rows hold" true (all_rows_hold t)

let test_e29_monotone () =
  let t = Experiments.e29_progress_growth ~seed:7 () in
  well_formed t;
  let idx = column_index t "monotone" in
  List.iter
    (fun row -> check_bool "monotone" true (List.nth row idx = "yes"))
    t.Experiments.rows

let test_print_renders () =
  let t = Experiments.e1_lemma_1_10 ~seed:7 () in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Experiments.print fmt t;
  Format.pp_print_flush fmt ();
  check_bool "rendered something" true (Buffer.length buf > 100);
  check_bool "contains title" true
    (let s = Buffer.contents buf in
     let rec contains i =
       i + 2 <= String.length s && (String.sub s i 2 = "E1" || contains (i + 1))
     in
     contains 0)

(* Cross-commit pins for every experiment in the registry, run through
   [Experiments.by_id] (and so through the metered wrapper every caller
   uses).  Each is the [Digest] hex of the EXP envelope as `bcc_cli run`
   writes it at the default seed, with the [git] field dropped (it names
   the producing checkout, and is the only field that does) — the md5 of
   EXP_<id>.json without its "git" line and final newline.  A change to
   sampling, recovery, a simulator or a table's rendering fails here even
   when every in-run oracle moves with it.  e31 runs at
   BCC_E31_N = 4096. *)
let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let envelope_digest t =
  match Experiments.artifact ~seed:42 t with
  | Artifact.Obj fields ->
      Artifact.Obj (List.remove_assoc "git" fields)
      |> Artifact.to_string ~pretty:true
      |> Digest.string |> Digest.to_hex
  | _ -> Alcotest.fail "envelope is not an object"

let golden_exp =
  [
    ("e1", "8b0c4679446344e98ad6c4dadfcee10d");
    ("e2", "5c7edde4554eee1465abc051795cc44e");
    ("e3", "18123c5ae619627e76caf0808131fb31");
    ("e4", "7e3bf06f344f59ac17ef4280035f6d6c");
    ("e5", "7ba163e303481af39a3d16894a239318");
    ("e6", "2913de4763336fe118df2876bc276793");
    ("e7", "a8c5fa54f35c460076e992e1cfa0acf0");
    ("e8", "f2b79d3d425b7e0e6e1336e6c66a92f5");
    ("e9", "8d456b3540cb4e8663dbc6f98fcd2144");
    ("e10", "d79bd921ec264f3d6097698c80cce74b");
    ("e11", "770827decdaecf7ec2e956315956c39e");
    ("e12", "ff51c5648e8562edefdaab6b6fc60a58");
    ("e13", "853c3914fc31d880033ab43eac9a79a3");
    ("e14", "1eafa8e55c06d466e201a93280619d36");
    ("e15", "caf995c190b5c4527b2fd7d6c4684822");
    ("e16", "935eca535aba46720b6730d7238a85d1");
    ("e17", "41d46b123e8bc8e2b8c49ed961a5b6f8");
    ("e18", "3483823f18016b6d2b5f83aad482ecb0");
    ("e19", "f4a353682d5af254e3f990c9380f2fbe");
    ("e20", "2666020f9a6597d782f8d3720ad5bdec");
    ("e21", "0046b33be117a6720ab221204dc8048e");
    ("e22", "22742efb7456e38d10b79c7b7798c12a");
    ("e23", "877968f0988d3081deee18438cf1482e");
    ("e24", "06ac5e0d08ddce4dc6ee408d1f4b65c2");
    ("e25", "ee723bd881d69293713530903adf7aba");
    ("e26", "20ff4ed6f3f5af3140f89793afdec7ef");
    ("e27", "4e7d62aae521674f2279c0ec2ddf13d8");
    ("e28", "49d88e4b88c75f139f685e9ca7a1a219");
    ("e29", "2784a538efb4127eb3c73518a8cdc743");
    ("e30", "c7b8bdf32903e5a62e4e2bb8555b7d10");
    ("e31", "39b4074bb72ff30217487de37d3630ba");
  ]

let test_golden_exp_digests () =
  Alcotest.(check (list string))
    "one pin per registry id" Experiments.ids (List.map fst golden_exp);
  let fresh (id, _) =
    match Experiments.by_id id with
    | None -> Alcotest.failf "no experiment %s" id
    | Some f -> (id, envelope_digest (with_env "BCC_E31_N" "4096" (f ~seed:42)))
  in
  Alcotest.(check (list (pair string string)))
    "EXP envelope digest per experiment" golden_exp
    (List.map fresh golden_exp)

let () =
  Alcotest.run "experiments"
    [
      ( "drivers",
        [
          Alcotest.test_case "ids complete" `Quick test_ids_complete;
          Alcotest.test_case "E1 verdicts" `Quick test_e1_holds;
          Alcotest.test_case "E2 verdicts" `Slow test_e2_holds;
          Alcotest.test_case "E4 ordering" `Quick test_e4_ordering;
          Alcotest.test_case "E6 verdicts" `Quick test_e6_holds;
          Alcotest.test_case "E8 threshold shape" `Slow test_e8_threshold;
          Alcotest.test_case "E9 attack" `Slow test_e9_breaks;
          Alcotest.test_case "E13 one-sided" `Quick test_e13_one_sided;
          Alcotest.test_case "E20 verdicts" `Quick test_e20_holds;
          Alcotest.test_case "E28 exact verdicts" `Slow test_e28_holds;
          Alcotest.test_case "E29 monotone" `Quick test_e29_monotone;
          Alcotest.test_case "printer" `Quick test_print_renders;
        ] );
      ( "golden",
        [
          Alcotest.test_case "EXP envelope digests" `Quick
            test_golden_exp_digests;
        ] );
    ]
