(* Tests for the hierarchical profiler: span nesting and self-time
   arithmetic, counter exactness under domain fan-out, determinism of the
   comparison payload, the zero-allocation disabled path, and the
   Perfetto exporter's B/E discipline. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_prof f =
  Prof.start ();
  Fun.protect f ~finally:(fun () -> Prof.reset ())

let rec find_node path nodes =
  match path with
  | [] -> None
  | [ name ] -> List.find_opt (fun n -> n.Prof.name = name) nodes
  | name :: rest -> (
      match List.find_opt (fun n -> n.Prof.name = name) nodes with
      | Some n -> find_node rest n.Prof.children
      | None -> None)

let get_node path r =
  match find_node path r.Prof.spans with
  | Some n -> n
  | None -> Alcotest.fail ("span not found: " ^ String.concat "/" path)

(* ------------------------------------------------------------- spans *)

let test_clock_monotone () =
  let a = Prof.now_ns () in
  let b = Prof.now_ns () in
  check_bool "clock does not go backwards" true (b >= a);
  let (), dt = Prof.time (fun () -> ignore (Sys.opaque_identity 0)) in
  check_bool "duration nonnegative" true (dt >= 0.0)

let test_nesting_and_self_time () =
  with_prof (fun () ->
      Prof.span "outer" (fun () ->
          Prof.span "inner" (fun () -> Prof.add Prof.Word_ops 7);
          Prof.span "inner" (fun () -> Prof.add Prof.Word_ops 5));
      Prof.span "outer" (fun () -> ());
      Prof.stop ();
      let r = Prof.report () in
      check_int "one top-level span" 1 (List.length r.Prof.spans);
      let outer = get_node [ "outer" ] r in
      check_int "outer calls merge" 2 outer.Prof.calls;
      let inner = get_node [ "outer"; "inner" ] r in
      check_int "inner calls merge" 2 inner.Prof.calls;
      check_int "counters attach to the innermost span" 12
        (List.assoc "word_ops" inner.Prof.counters);
      check_bool "outer has no counters" true (outer.Prof.counters = []);
      (* Inclusive time covers the children; self = total - children. *)
      check_bool "inner total within outer total" true
        (inner.Prof.total_ns <= outer.Prof.total_ns);
      check_int "self-time arithmetic" outer.Prof.self_ns
        (outer.Prof.total_ns - inner.Prof.total_ns);
      check_bool "self times nonnegative" true
        (outer.Prof.self_ns >= 0 && inner.Prof.self_ns >= 0);
      (* sum_self_ns telescopes back to the inclusive root total. *)
      check_int "self times sum to the root total" outer.Prof.total_ns
        (Prof.sum_self_ns r))

let test_span_exception_safe () =
  with_prof (fun () ->
      (try Prof.span "outer" (fun () -> failwith "boom")
       with Failure _ -> ());
      Prof.span "after" (fun () -> ());
      Prof.stop ();
      let r = Prof.report () in
      (* The raising span was closed on the way out: "after" is a
         sibling, not a child. *)
      check_int "raising span recorded" 1 (get_node [ "outer" ] r).Prof.calls;
      check_int "next span is top-level" 1 (get_node [ "after" ] r).Prof.calls)

let test_disabled_paths_are_inert () =
  Prof.reset ();
  check_bool "disabled" false (Prof.enabled ());
  Prof.add Prof.Prng_bits 3;
  check_int "span runs its body when disabled" 9 (Prof.span "s" (fun () -> 9));
  check_bool "no path when disabled" true (Prof.current_path () = []);
  let r = Prof.report () in
  check_bool "nothing recorded" true
    (r.Prof.spans = [] && r.Prof.root_counters = [])

(* The disabled fast path must not allocate: pin with minor-heap words.
   The loop body reuses preallocated closures so the only allocation
   candidates are inside Prof itself; Gc.minor_words boxes its float
   result, so allow a small constant slack over 10_000 iterations. *)
let test_disabled_path_no_alloc () =
  Prof.reset ();
  let body = Sys.opaque_identity (fun () -> 1) in
  let f () =
    Prof.add Prof.Word_ops 1;
    ignore (Prof.span "y" body)
  in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  let delta = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "disabled profiler allocates nothing (delta %.0f words)"
       delta)
    true
    (delta < 100.0)

(* ----------------------------------------------------- domain fan-out *)

(* A deterministic parallel workload: spans and counters inside
   Par.map_trials trials, under an enclosing span. *)
let fanout_workload () =
  let g = Prng.create 7 in
  Prof.span "job" (fun () ->
      ignore
        (Par.map_trials g ~trials:24 (fun ~trial gt ->
             Prof.span "trial" (fun () ->
                 Prof.add Prof.Prng_bits 8;
                 Prof.add Prof.Word_ops (trial mod 2);
                 Prng.int gt 100))))

let comparison_bytes () =
  with_prof (fun () ->
      fanout_workload ();
      Prof.stop ();
      let r = Prof.report () in
      (r, Artifact.to_string ~pretty:true (Prof.comparison_json r)))

let test_counters_exact_across_domains () =
  let old = Par.domain_count () in
  Fun.protect
    ~finally:(fun () -> Par.set_domain_count old)
    (fun () ->
      let run domains =
        Par.set_domain_count domains;
        comparison_bytes ()
      in
      let r1, bytes1 = run 1 in
      let r4, bytes4 = run 4 in
      List.iter
        (fun (r : Prof.report) ->
          let trial = get_node [ "job"; "trial" ] r in
          check_int "trial calls exact" 24 trial.Prof.calls;
          check_int "prng_bits exact" (24 * 8)
            (List.assoc "prng_bits" trial.Prof.counters);
          check_int "word_ops exact" 12
            (List.assoc "word_ops" trial.Prof.counters);
          check_bool "self times nonnegative after merge" true
            ((get_node [ "job" ] r).Prof.self_ns >= 0))
        [ r1; r4 ];
      check_string "comparison payload independent of domain count" bytes1
        bytes4;
      (* The 4-domain run reports per-lane telemetry for the pool job. *)
      check_bool "lanes reported at 4 domains" true (r4.Prof.pool_jobs >= 1);
      check_bool "worker lanes present" true
        (List.exists (fun l -> l.Prof.lane > 0) r4.Prof.lanes);
      check_int "lane items cover all trials" 24
        (List.fold_left (fun a l -> a + l.Prof.items) 0 r4.Prof.lanes))

let test_comparison_bytes_stable_across_runs () =
  let _, a = comparison_bytes () in
  let _, b = comparison_bytes () in
  check_string "same bytes run to run" a b;
  (* And no timing field leaks into the payload. *)
  let mentions s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "no _ns member in comparison payload" false (mentions a "_ns")

let test_deterministic_counter_split () =
  (* Every counter is a pure function of the seeded computation, so all
     of them go to the comparison payload and none to the telemetry. *)
  with_prof (fun () ->
      Prof.span "s" (fun () ->
          Prof.add Prof.Word_ops 3;
          Prof.add Prof.Prng_bits 2);
      Prof.stop ();
      let r = Prof.report () in
      let mentions s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      let comparison =
        Artifact.to_string ~pretty:true (Prof.comparison_json r)
      in
      check_bool "word_ops in comparison" true (mentions comparison "word_ops");
      check_bool "prng_bits in comparison" true (mentions comparison "prng_bits");
      let telemetry =
        match Prof.to_artifact ~id:"t" r with
        | Artifact.Obj fields -> (
            match List.assoc "payload" fields with
            | Artifact.Obj p -> Artifact.to_string ~pretty:true (List.assoc "telemetry" p)
            | _ -> Alcotest.fail "payload is not an object")
        | _ -> Alcotest.fail "artifact is not an object"
      in
      check_bool "no counters in telemetry" false (mentions telemetry "counters"))

(* --------------------------------------------------------- exporters *)

let test_perfetto_well_formed () =
  with_prof (fun () ->
      fanout_workload ();
      (* Leave one span open (stopping inside it skips its close): the
         exporter must synthesize its E. *)
      Prof.span "left-open" Prof.stop;
      let trace = Prof.to_perfetto () in
      let doc = Artifact.of_string trace in
      let events =
        match Artifact.member "traceEvents" doc with
        | Some l -> Option.get (Artifact.to_list_opt l)
        | None -> Alcotest.fail "no traceEvents"
      in
      check_bool "nonempty" true (events <> []);
      (* Replay per-tid stacks: every B is matched by an E of the same
         name, timestamps are monotone within a tid. *)
      let stacks = Hashtbl.create 4 in
      let str k e = Option.bind (Artifact.member k e) Artifact.to_string_opt in
      let unmatched = ref 0 in
      List.iter
        (fun e ->
          match str "ph" e with
          | Some "M" -> ()
          | Some (("B" | "E") as ph) ->
              let tid =
                Option.value ~default:(-1)
                  (Option.bind (Artifact.member "tid" e) Artifact.to_int_opt)
              in
              let name = Option.value ~default:"?" (str "name" e) in
              let stack =
                match Hashtbl.find_opt stacks tid with
                | Some s -> s
                | None ->
                    let s = ref [] in
                    Hashtbl.replace stacks tid s;
                    s
              in
              if ph = "B" then stack := name :: !stack
              else begin
                match !stack with
                | top :: rest when top = name -> stack := rest
                | _ -> incr unmatched
              end
          | _ -> Alcotest.fail "event without a phase")
        events;
      check_int "no unmatched E events" 0 !unmatched;
      (* bcc-lint: allow det/hashtbl-order — summing a commutative count *)
      let open_spans = Hashtbl.fold (fun _ s acc -> acc + List.length !s) stacks 0 in
      check_int "every B closed" 0 open_spans)

let test_report_artifact_envelope () =
  with_prof (fun () ->
      Prof.span "s" (fun () -> ());
      Prof.stop ();
      let doc = Prof.to_artifact ~id:"t" ~seed:3 (Prof.report ()) in
      let doc = Artifact.of_string (Artifact.to_string doc) in
      check_bool "kind prof" true
        (Artifact.member "kind" doc = Some (Artifact.String "prof"));
      let payload = Option.get (Artifact.member "payload" doc) in
      check_bool "comparison present" true
        (Artifact.member "comparison" payload <> None);
      check_bool "telemetry present" true
        (Artifact.member "telemetry" payload <> None))

(* [Enum.count_above] makes one float comparison per entry, and charges
   one word_op for each. *)
let test_count_above_charge () =
  with_prof (fun () ->
      let stats = Array.init 60 float_of_int in
      check_int "hits" 30 (Bcc_kern.Enum.count_above stats ~threshold:29.5);
      Prof.stop ();
      let node = get_node [ "kern:enum.count_above" ] (Prof.report ()) in
      check_int "one word_op per entry" 60 (List.assoc "word_ops" node.Prof.counters))

(* Calls of every span named [name], wherever it sits in the tree. *)
let rec calls_named name nodes =
  List.fold_left
    (fun acc n ->
      acc
      + (if n.Prof.name = name then n.Prof.calls else 0)
      + calls_named name n.Prof.children)
    0 nodes

(* The sparse pipeline's stage spans: decode, splice and build under the
   sampler call, and the degree scan.  The build's CSR is certified, so
   no column scan runs on it: neither the build nor a later check_t or
   degree_sums opens a check span.  [Spgraph.make] on the same arrays
   runs the full scan, once.  Call counts are the same at any domain
   count. *)
let test_sparse_stage_spans () =
  let run domains =
    Par.set_domain_count domains;
    with_prof (fun () ->
        Prof.span "t" (fun () ->
            let g, _ =
              Sparse.sample_planted_sharded (Prng.create 5) ~n:2048 ~p:0.02
                ~k:32
            in
            Bcc_kern.Spgraph.check_t g;
            ignore (Sparse.degree_sums g);
            ignore
              (Bcc_kern.Spgraph.make ~n:g.Bcc_kern.Spgraph.n
                 ~row_ptr:g.Bcc_kern.Spgraph.row_ptr
                 ~cols:g.Bcc_kern.Spgraph.cols));
        Prof.stop ();
        let r = Prof.report () in
        ( "kern:spgraph.check spans anywhere",
          calls_named "kern:spgraph.check" r.Prof.spans )
        :: List.map
             (fun path ->
               (String.concat "/" path, (get_node path r).Prof.calls))
             [
               [ "t"; "sparse:decode" ];
               [ "t"; "sparse:splice" ];
               [ "t"; "sparse:build" ];
               [ "t"; "sparse:degree_sums" ];
               [ "t"; "kern:spgraph.check" ];
             ])
  in
  let old = Par.domain_count () in
  Fun.protect
    ~finally:(fun () -> Par.set_domain_count old)
    (fun () ->
      let one = run 1 and four = run 4 in
      List.iter (fun (path, calls) -> check_int path 1 calls) one;
      check_bool "same spans and calls at 1 and 4 domains" true (one = four))

let () =
  Alcotest.run "prof"
    [
      ( "spans",
        [
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "nesting and self-time" `Quick
            test_nesting_and_self_time;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled paths inert" `Quick
            test_disabled_paths_are_inert;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_no_alloc;
        ] );
      ( "domains",
        [
          Alcotest.test_case "counters exact at 1 and 4 domains" `Quick
            test_counters_exact_across_domains;
          Alcotest.test_case "comparison bytes stable" `Quick
            test_comparison_bytes_stable_across_runs;
          Alcotest.test_case "deterministic counter split" `Quick
            test_deterministic_counter_split;
          Alcotest.test_case "sparse stage spans" `Quick
            test_sparse_stage_spans;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "perfetto well-formed" `Quick
            test_perfetto_well_formed;
          Alcotest.test_case "artifact envelope" `Quick
            test_report_artifact_envelope;
        ] );
      ( "charges",
        [
          Alcotest.test_case "count_above charges its comparisons" `Quick
            test_count_above_charge;
        ] );
    ]
