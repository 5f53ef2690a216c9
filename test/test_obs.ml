(* Tests for the observability layer: tracing, sinks, the metrics
   registry, JSON artifacts, and the resource-accounting invariants the
   traces and metrics are meant to guard. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* A constant protocol: every processor broadcasts [v] each round. *)
let const_proto name msg_bits rounds v =
  {
    Bcast.name;
    msg_bits;
    rounds;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
        {
          Bcast.send = (fun ~round:_ -> v);
          receive = (fun ~round:_ _ -> ());
          finish = (fun () -> ());
        });
  }

(* A chatty protocol: every processor broadcasts fresh random bits. *)
let random_proto msg_bits rounds =
  {
    Bcast.name = "random";
    msg_bits;
    rounds;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand ->
        {
          Bcast.send = (fun ~round:_ -> Bcast.Rand_counter.bits rand msg_bits);
          receive = (fun ~round:_ _ -> ());
          finish = (fun () -> ());
        });
  }

let inputs n = Array.init n (fun i -> Bitvec.of_int ~width:4 i)

(* --- tracing --- *)

let test_no_sink_by_default () =
  check_bool "disabled" false (Trace.enabled ());
  (* Emitting without a sink is a no-op, not an error. *)
  Trace.emit ~scope:"test" (Trace.Finish { id = 0 });
  let r = Bcast.run_deterministic (const_proto "c" 1 2 0) ~inputs:(inputs 3) in
  check_int "still runs" 2 r.Bcast.rounds_used

let test_memory_sink_captures_run () =
  let n = 3 and rounds = 2 in
  let _, events =
    Sink.capture (fun () ->
        Bcast.run_deterministic (const_proto "traced" 2 rounds 1) ~inputs:(inputs n))
  in
  check_bool "sink uninstalled after" false (Trace.enabled ());
  (* span pair + n spawns + per round (start + n broadcasts + end) + n
     finishes. *)
  check_int "event count" (2 + n + (rounds * (n + 2)) + n) (List.length events);
  let broadcasts =
    List.filter
      (fun e -> match e.Trace.payload with Trace.Broadcast _ -> true | _ -> false)
      events
  in
  check_int "broadcast events" (rounds * n) (List.length broadcasts);
  List.iter
    (fun e ->
      match e.Trace.payload with
      | Trace.Broadcast { value; msg_bits; sender; _ } ->
          check_int "value" 1 value;
          check_int "width" 2 msg_bits;
          check_bool "sender in range" true (sender >= 0 && sender < n)
      | _ -> ())
    broadcasts;
  (* Sequence numbers are 0..len-1 in order. *)
  List.iteri (fun i e -> check_int "seq" i e.Trace.seq) events

let test_rand_draw_events_match_accounting () =
  let n = 3 and rounds = 2 and msg_bits = 3 in
  let result, events =
    Sink.capture (fun () ->
        Bcast.run (random_proto msg_bits rounds) ~inputs:(inputs n)
          ~rand:(Prng.create 11))
  in
  let charged = Array.make n 0 in
  List.iter
    (fun e ->
      match e.Trace.payload with
      | Trace.Rand_draw { owner; bits; op } ->
          check_string "op" "bits" op;
          charged.(owner) <- charged.(owner) + bits
      | _ -> ())
    events;
  Array.iteri
    (fun i used -> check_int (Printf.sprintf "proc %d" i) used charged.(i))
    result.Bcast.random_bits

let test_turn_model_trace () =
  let proto =
    Turn_model.of_round_protocol ~n:3 ~rounds:2 (fun ~id:_ ~input ~history:_ ->
        Bitvec.get input 0)
  in
  let history, events =
    Sink.capture (fun () -> Turn_model.run proto ~inputs:(inputs 3))
  in
  let turns =
    List.filter_map
      (fun e ->
        match e.Trace.payload with
        | Trace.Turn { turn; speaker; bit } -> Some (turn, speaker, bit)
        | _ -> None)
      events
  in
  check_int "one event per turn" (Array.length history) (List.length turns);
  List.iteri
    (fun i (turn, speaker, bit) ->
      check_int "turn" i turn;
      check_int "speaker" (i mod 3) speaker;
      check_bool "bit" history.(i) bit)
    turns

let test_unicast_trace () =
  let n = 3 and rounds = 2 in
  let proto = Unicast.lift_broadcast (const_proto "u" 1 rounds 0) in
  let _, events =
    Sink.capture (fun () -> Unicast.run_deterministic proto ~inputs:(inputs n))
  in
  let sends =
    List.filter
      (fun e ->
        match e.Trace.payload with Trace.Unicast_send _ -> true | _ -> false)
      events
  in
  check_int "one outbox event per sender per round" (rounds * n) (List.length sends)

(* With the profiler off, [Prof.span] still brackets its body in the
   trace, with scope "span". *)
let test_span_helper () =
  let result, events =
    Sink.capture (fun () ->
        Prof.span "work" (fun () ->
            Trace.emit ~scope:"s" (Trace.Finish { id = 0 });
            7))
  in
  check_int "result" 7 result;
  check_bool "sink uninstalled after" false (Trace.enabled ());
  match events with
  | [ a; b; c ] ->
      check_bool "start" true
        (a.Trace.payload = Trace.Span_start { name = "work" } && a.Trace.scope = "span");
      check_bool "inner" true (b.Trace.payload = Trace.Finish { id = 0 });
      check_bool "end" true
        (c.Trace.payload = Trace.Span_end { name = "work" } && c.Trace.scope = "span")
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

let test_trace_determinism () =
  let trace_of seed =
    let events, _ = Runner.trace ~name:"equality-fp" ~seed in
    Sink.to_jsonl events
  in
  check_string "same seed, byte-identical" (trace_of 7) (trace_of 7);
  let planted seed =
    let events, _ = Runner.trace ~name:"planted-clique" ~seed in
    Sink.to_jsonl events
  in
  check_string "randomized protocol too" (planted 3) (planted 3)

(* Cross-commit pins for every Runner trace at seed 7: the md5 of
   [Sink.to_jsonl] over the events other than [Span_start]/[Span_end].
   The span events carry the span API's names, not the simulators' work,
   so they are left out; every other event keeps its [seq], so a span
   event that moves into the middle of a stream still fails here. *)
let golden_traces =
  [
    ("equality-det", "dc3384972dcddb72e7bbcf4106ebcea3");
    ("equality-fp", "13e67611d7f7b3bf14c97298ef1e97c2");
    ("full-rank", "5a89f8c30ba70d5a4115b75824f91841");
    ("planted-clique", "eed0240c1fd3f546b96c1f2bf981d849");
    ("f2-moment", "3f636a9e6ecd49e98da9d17be1032fdc");
    ("unicast-clique", "1b9359eb4539ecfd532cdf65c15a3c6d");
    ("turn-majority", "674ccfba7799d5aec5bb13f7e6639841");
  ]

let is_span e =
  match e.Trace.payload with
  | Trace.Span_start _ | Trace.Span_end _ -> true
  | _ -> false

let test_golden_trace_digests () =
  let digest name =
    let events, _ = Runner.trace ~name ~seed:7 in
    List.filter (fun e -> not (is_span e)) events
    |> Sink.to_jsonl |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check (list (pair string string)))
    "trace digest per protocol" golden_traces
    (List.map (fun name -> (name, digest name)) Runner.names)

(* An out-of-range value is rejected right after its sender's Broadcast
   event, so a traced run that fails there ends its broadcasts at that
   sender. *)
let test_bad_value_ends_broadcasts () =
  let proto =
    {
      Bcast.name = "bad-third";
      msg_bits = 1;
      rounds = 1;
      start =
        Bcast.spawn_only (fun ~id ~n:_ ~input:_ ~rand:_ ->
          {
            Bcast.send = (fun ~round:_ -> if id = 2 then 2 else 1);
            receive = (fun ~round:_ _ -> ());
            finish = (fun () -> ());
          });
    }
  in
  let (), events =
    Sink.capture (fun () ->
        match Bcast.run_deterministic proto ~inputs:(inputs 4) with
        | _ -> Alcotest.fail "out-of-range value accepted"
        | exception Invalid_argument msg ->
            check_string "message" "Transcript.append: message value out of range" msg)
  in
  Alcotest.(check (list int))
    "broadcast senders" [ 0; 1; 2 ]
    (List.filter_map
       (fun e ->
         match e.Trace.payload with Trace.Broadcast { sender; _ } -> Some sender | _ -> None)
       events)

(* --- the span API --- *)

(* A one-round protocol whose processors raise in [receive]. *)
let raising_proto =
  {
    Bcast.name = "raiser";
    msg_bits = 1;
    rounds = 1;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input:_ ~rand:_ ->
        {
          Bcast.send = (fun ~round:_ -> 0);
          receive = (fun ~round:_ _ -> failwith "processor fault");
          finish = (fun () -> ());
        });
  }

(* A run that raises closes its span in the profile and in the trace:
   the profiler's next top-level span is not nested under it, and the
   trace ends with the matching [Span_end]. *)
let check_span_closes_on_raise ~span run =
  let raises () = try run () with Failure _ -> () in
  Prof.start ();
  Fun.protect ~finally:Prof.reset (fun () ->
      raises ();
      Prof.span "after" ignore;
      Prof.stop ();
      let names = List.map (fun n -> n.Prof.name) (Prof.report ()).Prof.spans in
      check_bool (span ^ " and after are siblings") true (names = [ "after"; span ]));
  let (), events = Sink.capture raises in
  match List.filter is_span events with
  | [ a; b ] ->
      check_bool "start" true (a.Trace.payload = Trace.Span_start { name = span });
      check_bool "end" true (b.Trace.payload = Trace.Span_end { name = span })
  | l -> Alcotest.failf "%s: expected one span pair, got %d events" span (List.length l)

let test_bcast_span_closes_on_raise () =
  check_span_closes_on_raise ~span:"bcast:raiser" (fun () ->
      ignore (Bcast.run_deterministic raising_proto ~inputs:(inputs 3)))

let test_unicast_span_closes_on_raise () =
  check_span_closes_on_raise ~span:"unicast:raiser (lifted to unicast)" (fun () ->
      ignore
        (Unicast.run_deterministic (Unicast.lift_broadcast raising_proto)
           ~inputs:(inputs 3)))

(* Every simulated Runner trace is one [bcast:]/[unicast:] span around
   the run: its first and last events, and its only span events.  The
   turn model opens none. *)
let test_runner_span_pairs () =
  List.iter
    (fun name ->
      let events, s = Runner.trace ~name ~seed:7 in
      let spans = List.filter is_span events in
      if s.Runner.model = "turn" then check_int (name ^ ": no span") 0 (List.length spans)
      else begin
        let span = s.Runner.model ^ ":" ^ s.Runner.protocol in
        check_int (name ^ ": one span pair") 2 (List.length spans);
        check_bool (name ^ ": opens the trace") true
          ((List.hd events).Trace.payload = Trace.Span_start { name = span });
        check_bool (name ^ ": closes the trace") true
          ((List.nth events (List.length events - 1)).Trace.payload
          = Trace.Span_end { name = span })
      end)
    Runner.names

(* --- artifact round-trips --- *)

let test_trace_artifact_roundtrip () =
  let j = Runner.trace_artifact ~name:"equality-det" ~seed:42 in
  let back = Artifact.of_string (Artifact.to_string j) in
  check_bool "compact roundtrip" true (j = back);
  let back_pretty = Artifact.of_string (Artifact.to_string ~pretty:true j) in
  check_bool "pretty roundtrip" true (j = back_pretty);
  (* The envelope is present and well-formed. *)
  check_bool "schema version" true
    (Artifact.member "schema_version" j = Some (Artifact.Int Artifact.schema_version));
  check_bool "seed" true (Artifact.member "seed" j = Some (Artifact.Int 42));
  match Option.bind (Artifact.member "payload" j) (Artifact.member "events") with
  | Some (Artifact.List evs) ->
      check_bool "has events" true (List.length evs > 0);
      (* The events are the run's, as the JSONL encoder writes them. *)
      let events, _ = Runner.trace ~name:"equality-det" ~seed:42 in
      check_bool "events encoded" true (evs = List.map Sink.event_to_json events)
  | _ -> Alcotest.fail "missing events list"

let test_write_file_creates_parents () =
  (* Two missing levels above the file: `bcc_cli run --artifacts` and
     `bcc_cli prof --out` hand write_file such paths. *)
  let base = Filename.temp_file "bcc_artifact" "" in
  Sys.remove base;
  let mid = Filename.concat base "a" in
  let dir = Filename.concat mid "b" in
  let path = Filename.concat dir "x.json" in
  let j = Artifact.Obj [ ("k", Artifact.Int 1) ] in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      List.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) [ dir; mid; base ])
    (fun () ->
      Artifact.write_file ~path j;
      check_bool "read back" true (Artifact.read_file ~path = j);
      (* An existing directory is fine the second time. *)
      Artifact.write_file ~path j;
      check_bool "rewritten" true (Artifact.read_file ~path = j);
      (* A file in the path is a Sys_error, which the CLI maps to a usage
         error, never an uncaught Unix_error. *)
      check_bool "file as parent" true
        (match Artifact.write_file ~path:(Filename.concat (Filename.concat path "sub") "y.json") j with
        | () -> false
        | exception Sys_error _ -> true))

let test_json_parser_edges () =
  let roundtrip s = Artifact.to_string (Artifact.of_string s) in
  check_string "escapes" {|{"a":"line\nbreak \"q\" \\ tab\t"}|}
    (roundtrip {|{"a":"line\nbreak \"q\" \\ tab\t"}|});
  check_string "nested" {|[1,[2,[3,{}]],null,true,false]|}
    (roundtrip {|[ 1 , [2,[3, {} ]], null, true , false ]|});
  check_bool "negative int" true (Artifact.of_string "-42" = Artifact.Int (-42));
  check_bool "float" true
    (match Artifact.of_string "2.5e-3" with
    | Artifact.Float x -> Float.abs (x -. 0.0025) < 1e-12
    | _ -> false);
  check_bool "control escape" true
    (Artifact.of_string "\"\\u0007\"" = Artifact.String "\007");
  Alcotest.check_raises "trailing garbage"
    (Artifact.Parse_error "trailing garbage at offset 2") (fun () ->
      ignore (Artifact.of_string "1 x"));
  (match Artifact.of_string "1e999" with
  | Artifact.Float x -> check_bool "inf parses" true (Float.is_integer x || x = Float.infinity)
  | _ -> Alcotest.fail "expected float");
  (* NaN serializes as null (never emits invalid JSON). *)
  check_string "nan" "null" (Artifact.to_string (Artifact.Float Float.nan))

let test_float_repr_roundtrips () =
  List.iter
    (fun x ->
      match Artifact.of_string (Artifact.to_string (Artifact.Float x)) with
      | Artifact.Float y -> check_bool "exact" true (x = y)
      | Artifact.Int y -> check_bool "integral" true (float_of_int y = x)
      | _ -> Alcotest.fail "not a number")
    [ 0.0; 1.0; -1.5; 0.1; 1.0 /. 3.0; 1e-300; 1.2020569031595942; 6.02e23 ]

(* --- metrics --- *)

let test_metrics_counter_kind_clash () =
  Metrics.reset ();
  let c = Metrics.counter "test_counter" in
  Metrics.inc c;
  Metrics.inc ~by:41 c;
  let find name =
    List.find_opt (fun s -> s.Metrics.name = name) (Metrics.snapshot ())
  in
  (match find "test_counter" with
  | Some { Metrics.value = Metrics.Counter v; _ } -> check_int "counter" 42 v
  | _ -> Alcotest.fail "counter missing");
  (* Same name, same kind: the same handle. *)
  Metrics.inc (Metrics.counter "test_counter");
  (match find "test_counter" with
  | Some { Metrics.value = Metrics.Counter v; _ } -> check_int "shared" 43 v
  | _ -> Alcotest.fail "counter missing");
  (* Same name, different kind: rejected. *)
  check_bool "kind clash" true
    (try
       ignore (Metrics.histogram "test_counter");
       false
     with Invalid_argument _ -> true)

let test_metrics_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test_hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.0; 100.0 ];
  match
    List.find_opt (fun s -> s.Metrics.name = "test_hist") (Metrics.snapshot ())
  with
  | Some { Metrics.value = Metrics.Histogram { counts; sum; count; _ }; _ } ->
      check_int "le 1" 2 counts.(0);
      check_int "le 10" 1 counts.(1);
      check_int "overflow" 1 counts.(2);
      check_int "count" 4 count;
      checkf "sum" 106.5 sum
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_ratio_wilson () =
  Metrics.reset ();
  let r = Metrics.ratio "test_ratio" in
  Metrics.record_many r ~successes:30 ~trials:100;
  Metrics.record r ~success:true;
  (* 31 successes in 101 trials; the snapshot's interval must agree with
     Stats.wilson_interval at the same z. *)
  let lo, hi = Stats.wilson_interval ~successes:31 ~trials:101 ~z:Metrics.wilson_z in
  match
    List.find_opt (fun s -> s.Metrics.name = "test_ratio") (Metrics.snapshot ())
  with
  | Some
      {
        Metrics.value =
          Metrics.Ratio { successes; trials; estimate; wilson_low; wilson_high; half_width };
        _;
      } ->
      check_int "successes" 31 successes;
      check_int "trials" 101 trials;
      checkf "estimate" (31.0 /. 101.0) estimate;
      checkf "low" lo wilson_low;
      checkf "high" hi wilson_high;
      checkf "half width" ((hi -. lo) /. 2.0) half_width
  | _ -> Alcotest.fail "ratio missing"

let test_metrics_json_parses () =
  Metrics.reset ();
  Metrics.inc (Metrics.counter "json_counter");
  Metrics.observe (Metrics.histogram "json_hist") 3.0;
  Metrics.record (Metrics.ratio "json_ratio") ~success:false;
  let j = Metrics.samples_to_json (Metrics.snapshot ()) in
  let back = Artifact.of_string (Artifact.to_string ~pretty:true j) in
  check_bool "roundtrip" true (j = back);
  (match Artifact.member "json_counter" back with
  | Some c ->
      check_bool "typed" true
        (Artifact.member "type" c = Some (Artifact.String "counter"))
  | None -> Alcotest.fail "counter missing from json");
  (* The string form serves the same snapshot inside the Artifact
     envelope. *)
  let enveloped = Artifact.of_string (Metrics.to_json ()) in
  check_bool "envelope kind" true
    (Artifact.member "kind" enveloped = Some (Artifact.String "metrics"));
  check_bool "envelope payload" true
    (Option.bind (Artifact.member "payload" enveloped)
       (Artifact.member "json_counter")
    <> None)

let test_simulator_metrics_gated () =
  Metrics.reset ();
  let run () =
    ignore (Bcast.run_deterministic (const_proto "gated" 1 2 0) ~inputs:(inputs 3))
  in
  let runs () =
    match
      List.find_opt (fun s -> s.Metrics.name = "bcast_runs_total") (Metrics.snapshot ())
    with
    | Some { Metrics.value = Metrics.Counter v; _ } -> v
    | _ -> 0
  in
  Metrics.set_collecting false;
  run ();
  check_int "off: nothing recorded" 0 (runs ());
  Metrics.set_collecting true;
  Fun.protect ~finally:(fun () -> Metrics.set_collecting false) run;
  check_int "on: one run recorded" 1 (runs ());
  match
    List.find_opt
      (fun s -> s.Metrics.name = "bcast_broadcast_bits_total")
      (Metrics.snapshot ())
  with
  | Some { Metrics.value = Metrics.Counter v; _ } -> check_int "bits" (2 * 3 * 1) v
  | _ -> Alcotest.fail "bits counter missing"

(* --- resource-accounting invariants (satellite: combinators) --- *)

let check_resource_law proto ~n =
  let r = Bcast.run proto ~inputs:(inputs n) ~rand:(Prng.create 9) in
  check_int
    (Printf.sprintf "%s: broadcast_bits = rounds * n * msg_bits" proto.Bcast.name)
    (r.Bcast.rounds_used * n * proto.Bcast.msg_bits)
    r.Bcast.broadcast_bits;
  check_int
    (Printf.sprintf "%s: transcript carries the same bits" proto.Bcast.name)
    r.Bcast.broadcast_bits
    (Transcript.bit_length r.Bcast.transcript)

let test_broadcast_bits_invariant () =
  let p1 = random_proto 2 3 in
  let p2 = const_proto "c2" 2 2 1 in
  let n = 4 in
  check_resource_law p1 ~n;
  check_resource_law (Bcast.sequential p1 p2) ~n;
  check_resource_law (Bcast.parallel_pair p1 (const_proto "c3" 3 2 1)) ~n;
  check_resource_law (Bcast.with_rounds 7 p1) ~n;
  check_resource_law
    (Bcast.with_rounds 5 (Bcast.sequential p1 p2))
    ~n;
  (* The combinator algebra: sequential sums rounds, parallel_pair packs
     widths and takes the max of rounds. *)
  check_int "sequential rounds" (3 + 2) (Bcast.sequential p1 p2).Bcast.rounds;
  check_int "parallel msg_bits" (2 + 3)
    (Bcast.parallel_pair p1 (const_proto "c3" 3 2 1)).Bcast.msg_bits;
  check_int "parallel rounds" 3
    (Bcast.parallel_pair p1 (const_proto "c3" 3 2 1)).Bcast.rounds

let test_deterministic_runs_draw_nothing () =
  let check_det : 'a. 'a Bcast.protocol -> unit =
   fun proto ->
    let r = Bcast.run_deterministic proto ~inputs:(inputs 5) in
    Array.iteri
      (fun i bits ->
        check_int (Printf.sprintf "%s proc %d" proto.Bcast.name i) 0 bits)
      r.Bcast.random_bits
  in
  check_det (const_proto "d1" 1 3 0);
  check_det (Bcast.sequential (const_proto "d2" 2 2 1) (const_proto "d3" 2 1 2));
  check_det (Bcast.parallel_pair (const_proto "d4" 1 2 1) (const_proto "d5" 3 1 0));
  check_det (Bcast.with_rounds 4 (const_proto "d6" 1 1 0))

let test_runner_summary_consistent () =
  List.iter
    (fun name ->
      let events, s = Runner.trace ~name ~seed:3 in
      check_bool (name ^ ": events captured") true (List.length events > 0);
      check_bool (name ^ ": rounds nonneg") true (s.Runner.rounds_used >= 0);
      if s.Runner.model = "bcast" then
        check_int
          (name ^ ": channel bits law")
          (s.Runner.rounds_used * s.Runner.n * s.Runner.msg_bits)
          s.Runner.channel_bits)
    Runner.names

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "no sink by default" `Quick test_no_sink_by_default;
          Alcotest.test_case "memory sink captures run" `Quick
            test_memory_sink_captures_run;
          Alcotest.test_case "rand draws match accounting" `Quick
            test_rand_draw_events_match_accounting;
          Alcotest.test_case "turn model" `Quick test_turn_model_trace;
          Alcotest.test_case "unicast" `Quick test_unicast_trace;
          Alcotest.test_case "span helper" `Quick test_span_helper;
          Alcotest.test_case "byte-identical traces" `Quick test_trace_determinism;
          Alcotest.test_case "golden digests" `Quick test_golden_trace_digests;
          Alcotest.test_case "bad value ends the broadcasts" `Quick
            test_bad_value_ends_broadcasts;
        ] );
      ( "span API",
        [
          Alcotest.test_case "bcast span closes on a raise" `Quick
            test_bcast_span_closes_on_raise;
          Alcotest.test_case "unicast span closes on a raise" `Quick
            test_unicast_span_closes_on_raise;
          Alcotest.test_case "runner traces carry one span pair" `Quick
            test_runner_span_pairs;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "trace artifact roundtrip" `Quick
            test_trace_artifact_roundtrip;
          Alcotest.test_case "write_file creates missing parents" `Quick
            test_write_file_creates_parents;
          Alcotest.test_case "parser edges" `Quick test_json_parser_edges;
          Alcotest.test_case "float repr roundtrips" `Quick test_float_repr_roundtrips;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and kind clash" `Quick
            test_metrics_counter_kind_clash;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "ratio wilson interval" `Quick test_metrics_ratio_wilson;
          Alcotest.test_case "snapshot json parses" `Quick test_metrics_json_parses;
          Alcotest.test_case "simulator metrics gated" `Quick
            test_simulator_metrics_gated;
        ] );
      ( "resource invariants",
        [
          Alcotest.test_case "broadcast bits law" `Quick test_broadcast_bits_invariant;
          Alcotest.test_case "deterministic draws nothing" `Quick
            test_deterministic_runs_draw_nothing;
          Alcotest.test_case "runner summaries" `Quick test_runner_summary_consistent;
        ] );
    ]
