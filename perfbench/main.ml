(* The end-to-end benchmark: one workload per process, a closed loop of
   ops for a fixed amount of timed wall clock, every op checked outside
   the clock.

     main.exe --workload sparse-large|bcast-clique
              --seed N --seconds S --trace 0|1

   The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Earlier lines
   carry the host fingerprint, the run's parameters and op count, and in
   traced runs the merged span tree and the per-layer table.

   Traced runs alternate: even ops run with the profiler off, odd ops
   with it on, so the tracing overhead is measured within the run as the
   difference of the two halves' ops/s, and per-layer figures are means
   over the traced ops.

   Set-up is measured in child processes: the program re-runs itself
   with --setup-probe, which does the run's whole set-up (process and
   runtime start, library initialisation, input set-up, pool start) and
   prints [Prof.now_ns] where the first timed op would start.
   CLOCK_MONOTONIC is system-wide, so that reading minus the parent's
   reading just before the spawn is the time from process start to the
   first timed op.  setup_s is the median over the probes, which are
   spread over the run between ops.

   Exit codes: 0 every op's check passed; 1 an op's check failed (the
   result line is still printed) or a set-up probe failed (it is not);
   2 bad arguments; 3 refused by the memory preflight. *)

let t_start = Prof.now_ns ()
let foi = float_of_int
let median xs = Stats.quantile xs 0.5

(* Set-up probes per run.  They run between ops, after each op as many
   as keep pace with the share of the timed clock used so far: set-up
   time follows the host's speed, which changes in stretches of seconds,
   so probes taken in one burst would all sample one stretch, while
   spread out they cover the same stretches as the op metrics. *)
let setup_probes = 41

(* Stop starting ops past this much process wall time, so a slow host
   still exits well within a run's time limit. *)
let wall_limit_ns = 150_000_000_000

let usage_exit msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* ------------------------------------------------------------ options *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref (-1.0)
let trace = ref (-1)
let setup_probe = ref false
let nproc = Domain.recommended_domain_count ()

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  sparse-large | bcast-clique");
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S  timed wall clock to fill with ops (> 0)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer (traced) run");
      ( "--setup-probe",
        Arg.Set setup_probe,
        " do the set-up only, then print the clock and exit (used for setup_s)" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> usage_exit m);
  if !seed < 0 then usage_exit "--seed N (N >= 0) is required";
  if not (!seconds > 0.0) then usage_exit "--seconds S (S > 0) is required";
  if !trace <> 0 && !trace <> 1 then usage_exit "--trace 0|1 is required";
  match List.assoc_opt !workload Workloads.all with
  | Some make -> make ()
  | None -> usage_exit (Printf.sprintf "unknown workload %S" !workload)

(* ------------------------------------------------------- fingerprint *)

let kb_to_mb kb = foi kb *. 1024.0 /. 1e6

let fingerprint ~pool =
  let mem key =
    match Procfs.meminfo_kb key with
    | Some kb -> Artifact.Float (kb_to_mb kb)
    | None -> Artifact.Null
  in
  Artifact.Obj
    [
      ("nproc", Int nproc);
      ("pool", Int pool);
      ("mem_total_mb", mem "MemTotal");
      ("mem_available_mb", mem "MemAvailable");
      ("thp", match Procfs.thp_mode () with Some m -> String m | None -> Null);
      ("llc_bytes", match Procfs.llc_bytes () with Some b -> Int b | None -> Null);
      ("ocaml", String Sys.ocaml_version);
      ("git_describe", String (Artifact.git_describe ()));
    ]

(* ------------------------------------------ merging per-op profiles *)

(* The profiler clears on [start], so each traced op's report is folded
   into a running one.  Node, counter and lane lists come sorted by name
   or lane id, so merging is a sorted merge. *)
let rec merge_sorted cmp combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = cmp x y in
      if c < 0 then x :: merge_sorted cmp combine xs b
      else if c > 0 then y :: merge_sorted cmp combine a ys
      else combine x y :: merge_sorted cmp combine xs ys

let merge_counters =
  merge_sorted
    (fun (a, _) (b, _) -> String.compare a b)
    (fun (name, a) (_, b) -> (name, a + b))

let rec merge_nodes a b =
  merge_sorted
    (fun (x : Prof.node) (y : Prof.node) -> String.compare x.name y.name)
    (fun (x : Prof.node) (y : Prof.node) ->
      {
        x with
        calls = x.calls + y.calls;
        total_ns = x.total_ns + y.total_ns;
        self_ns = x.self_ns + y.self_ns;
        counters = merge_counters x.counters y.counters;
        children = merge_nodes x.children y.children;
      })
    a b

let merge_reports (a : Prof.report) (b : Prof.report) : Prof.report =
  {
    spans = merge_nodes a.spans b.spans;
    root_counters = merge_counters a.root_counters b.root_counters;
    lanes =
      merge_sorted
        (fun (x : Prof.lane_stat) (y : Prof.lane_stat) -> Int.compare x.lane y.lane)
        (fun (x : Prof.lane_stat) (y : Prof.lane_stat) ->
          {
            x with
            jobs = x.jobs + y.jobs;
            busy_ns = x.busy_ns + y.busy_ns;
            wait_ns = x.wait_ns + y.wait_ns;
            items = x.items + y.items;
          })
        a.lanes b.lanes;
    pool_jobs = a.pool_jobs + b.pool_jobs;
    pool_wall_ns = a.pool_wall_ns + b.pool_wall_ns;
    dropped_events = a.dropped_events + b.dropped_events;
  }

let empty_report : Prof.report =
  { spans = []; root_counters = []; lanes = []; pool_jobs = 0; pool_wall_ns = 0; dropped_events = 0 }

(* ------------------------------------------------ per-layer metrics *)

let rec fold_nodes f acc (nodes : Prof.node list) =
  List.fold_left (fun acc (n : Prof.node) -> fold_nodes f (f acc n) n.children) acc nodes

let total_of names (r : Prof.report) =
  fold_nodes
    (fun acc (n : Prof.node) -> if List.mem n.name names then acc + n.total_ns else acc)
    0 r.spans

let counter_total name (r : Prof.report) =
  let of_list l = Option.value ~default:0 (List.assoc_opt name l) in
  fold_nodes (fun acc (n : Prof.node) -> acc + of_list n.counters) (of_list r.root_counters) r.spans

let div a b = if b = 0.0 then 0.0 else a /. b

type traced = {
  report : Prof.report;
  ops : int;  (** traced ops *)
  op_ns : int;  (** their summed wall time *)
  cpu_ticks : int;  (** process CPU time over them *)
  overhead_ops_per_s : float;
}

(* bench.* times are the calling domain's wall time (Probe); kern:*
   times are the library spans' Prof totals, which add up the lanes'
   busy time when a kernel runs on several lanes. *)
let per_layer ~pool t =
  let r = t.report in
  let ops = foi (max 1 t.ops) in
  let per_op x = x /. ops in
  let ms_per_op ns = per_op (ns /. 1e6) in
  let probe names f =
    List.fold_left (fun acc name -> acc +. f (Probe.get name)) 0.0 names
  in
  let wall names = probe names (fun p -> foi p.wall_ns) in
  let prof names = foi (total_of names r) in
  let sample_spans = [ "bench.graph.sample_planted_sharded" ] in
  let sample_ns = wall sample_spans in
  let bcast_ns = wall [ "bench.bcast.run" ] in
  let tl = Workloads.tally in
  let hits = foi (counter_total "cache_hits" r) in
  let misses = foi (counter_total "cache_misses" r) in
  let busy = List.fold_left (fun a (l : Prof.lane_stat) -> a + l.busy_ns) 0 r.lanes in
  let wait = List.fold_left (fun a (l : Prof.lane_stat) -> a + l.wait_ns) 0 r.lanes in
  let minflt (p : Probe.totals) = foi p.minflt in
  [
    ("graph.sample_ms", ms_per_op sample_ns, "ms");
    ("graph.sample_entries_per_s", div tl.entries (sample_ns /. 1e9), "entries/s");
    ("graph.sample_minflt", per_op (probe sample_spans minflt), "count");
    ( "graph.sample_rss_mb",
      per_op (probe sample_spans (fun p -> kb_to_mb p.rss_kb)),
      "MB" );
    ( "graph.sample_gc_major_words",
      per_op (probe sample_spans (fun p -> p.major_words)),
      "words" );
    ("graph.csr_mb_computed", div (tl.csr_bytes /. 1e6) (foi tl.instances), "MB");
    ("graph.recover_ms", ms_per_op (wall [ "bench.graph.degree_recover" ]), "ms");
    ("graph.recover_minflt", per_op (probe [ "bench.graph.degree_recover" ] minflt), "count");
    ("graph.planted_ms", ms_per_op (wall [ "bench.graph.dense_sample_planted" ]), "ms");
    ("kern.graph_max_clique_ms", ms_per_op (prof [ "kern:graph.max_clique" ]), "ms");
    ("kern.graph_core_ms", ms_per_op (prof [ "kern:graph.bidirectional_core" ]), "ms");
    ("kern.word_ops", per_op (foi (counter_total "word_ops" r)), "count");
    ("bcast.run_ms", ms_per_op bcast_ns, "ms");
    ("bcast.rounds", per_op tl.rounds, "count");
    ("bcast.broadcast_bits", per_op tl.broadcast_bits, "bits");
    ("bcast.bits_per_s", div tl.broadcast_bits (bcast_ns /. 1e9), "bits/s");
    ("bcast.random_bits", per_op tl.random_bits, "bits");
    ( "bcast.gc_minor_words",
      per_op (probe [ "bench.bcast.run" ] (fun p -> p.minor_words)),
      "words" );
    ("protocols.cache_hit_ratio", div hits (hits +. misses), "fraction");
    ("protocols.success_ratio", per_op tl.successes, "fraction");
    ("par.lane_busy_ms", ms_per_op (foi busy), "ms");
    ("par.lane_wait_ms", ms_per_op (foi wait), "ms");
    ("par.utilization", div (foi busy) (foi pool *. foi r.pool_wall_ns), "fraction");
    ( "par.cpu_util",
      div (foi t.cpu_ticks /. foi Procfs.clock_ticks_per_s) (foi t.op_ns /. 1e9),
      "ratio" );
    ("obs.trace_overhead_ops_per_s", t.overhead_ops_per_s, "ops/s");
  ]

(* ------------------------------------------------------------ set-up *)

let start_pool pool =
  Par.set_domain_count pool;
  ignore (Par.map_array Fun.id [| 0; 1 |])

(* One set-up probe: this program run with --setup-probe, timed from
   just before the spawn to the clock reading it prints once set up. *)
let probe_setup () =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds"; "1";
      "--trace"; "0"; "--setup-probe";
    |]
  in
  let t0 = Prof.now_ns () in
  let ic = Unix.open_process_args_in exe args in
  let ready = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind ready int_of_string_opt) with
  | Unix.WEXITED 0, Some t1 -> t1 - t0
  | _ ->
      prerr_endline "perfbench: a set-up probe failed";
      exit 1

(* --------------------------------------------------------------- run *)

let metric (name, value, unit_) =
  (name, Artifact.Obj [ ("value", Float value); ("unit", String unit_) ])

let () =
  let w = parse_args () in
  let traced_run = !trace = 1 in
  let pool = max 1 (min w.Workloads.lanes nproc) in
  let prepared =
    match w.prepare () with
    | Ok lines -> lines
    | Error msg ->
        prerr_endline ("perfbench: refusing to run: " ^ msg);
        exit 3
  in
  if !setup_probe then begin
    start_pool pool;
    print_endline (string_of_int (Prof.now_ns ()));
    exit 0
  end;
  List.iter print_endline prepared;
  start_pool pool;
  if w.release then Gc.compact ();
  print_endline ("host: " ^ Artifact.to_string (fingerprint ~pool));
  let root = Prng.create !seed in
  let op_gen = Prng.split root 1 in
  (* The closed loop. *)
  let seconds_ns = int_of_float (!seconds *. 1e9) in
  let min_ops = if traced_run then 2 else 1 in
  let times = ref [] and verified = ref 0 and attempted = ref 0 in
  let report = ref empty_report in
  let traced_ops = ref 0 and traced_ns = ref 0 and cpu_ticks = ref 0 in
  let plain_ops = ref 0 and plain_ns = ref 0 in
  let timed_ns = ref 0 in
  let probes = ref [] and n_probes = ref 0 in
  let probe_upto target =
    while !n_probes < target do
      probes := probe_setup () :: !probes;
      incr n_probes
    done
  in
  let run_op i traced =
    let cpu () =
      let st = Procfs.self_stat () in
      st.utime_ticks + st.stime_ticks
    in
    let c0 = if traced then cpu () else 0 in
    if traced then Prof.start ();
    let t0 = Prof.now_ns () in
    let check = w.op (Prng.split op_gen i) i in
    let dt = Prof.now_ns () - t0 in
    if traced then begin
      Prof.stop ();
      report := merge_reports !report (Prof.report ());
      cpu_ticks := !cpu_ticks + (cpu () - c0)
    end;
    (dt, check ())
  in
  while
    (!timed_ns < seconds_ns || !attempted < min_ops)
    && Prof.now_ns () - t_start < wall_limit_ns
  do
    let i = !attempted in
    let traced = traced_run && i mod 2 = 1 in
    let dt, ok = run_op i traced in
    incr attempted;
    if ok then incr verified;
    times := (foi dt /. 1e6) :: !times;
    timed_ns := !timed_ns + dt;
    if traced then begin
      incr traced_ops;
      traced_ns := !traced_ns + dt
    end
    else begin
      incr plain_ops;
      plain_ns := !plain_ns + dt
    end;
    if w.release then Gc.compact ();
    probe_upto (setup_probes * min !timed_ns seconds_ns / seconds_ns)
  done;
  probe_upto setup_probes;
  let setup_s = Array.of_list (List.rev_map (fun ns -> foi ns /. 1e9) !probes) in
  let times = Array.of_list (List.rev !times) in
  let attempted = !attempted and verified = !verified in
  let failed = attempted - verified in
  let n_ops = Array.length times in
  let ops_per_s ops ns = div (foi ops) (foi ns /. 1e9) in
  let hwm_mb = kb_to_mb (Option.value ~default:0 (Procfs.self_status_kb "VmHWM")) in
  let end_to_end =
    [
      ("ops_per_s", ops_per_s verified !timed_ns, "ops/s");
      ("op_p50_ms", median times, "ms");
      ("op_p90_ms", Stats.quantile times 0.9, "ms");
      ("peak_rss_mb", hwm_mb, "MB");
      ("setup_s", median setup_s, "s");
      ("verified_ratio", div (foi verified) (foi attempted), "fraction");
    ]
  in
  print_endline
    ("run: "
    ^ Artifact.to_string
        (Obj
           [
             ("workload", String w.name);
             ("seed", Int !seed);
             ("seconds", Float !seconds);
             ("trace", Int !trace);
             ("ops", Int n_ops);
             ("traced_ops", Int !traced_ops);
             ("params", Obj w.params);
           ]));
  if n_ops < 100 then
    Printf.printf "note: op_p90_ms rests on %d ops, fewer than the 100 that leave ten beyond it\n"
      n_ops;
  (* bcc-lint: allow det/float-format — human console report; the result line goes through Artifact *)
  let show kind (name, v, u) = Printf.printf "%s %-34s %14.6g %s\n" kind name v u in
  Array.iter (fun s -> show "setup" ("probe", s, "s")) setup_s;
  if n_ops <= 30 then Array.iter (fun t -> show "op" ("wall", t, "ms")) times;
  List.iter
    (fun (name, q) -> show "op" (name, Stats.quantile times q, "ms"))
    [ ("p10", 0.1); ("p25", 0.25); ("p50", 0.5); ("p75", 0.75); ("p90", 0.9); ("max", 1.0) ];
  let metrics =
    if not traced_run then begin
      List.iter (show "e2e") end_to_end;
      end_to_end
    end
    else begin
      let t =
        {
          report = !report;
          ops = !traced_ops;
          op_ns = !traced_ns;
          cpu_ticks = !cpu_ticks;
          overhead_ops_per_s =
            ops_per_s !plain_ops !plain_ns -. ops_per_s !traced_ops !traced_ns;
        }
      in
      let layer = per_layer ~pool t in
      Format.printf "%a@." (Prof.pp_report ~top:12) t.report;
      show "trace" ("untraced ops/s", ops_per_s !plain_ops !plain_ns, "ops/s");
      show "trace" ("traced ops/s", ops_per_s !traced_ops !traced_ns, "ops/s");
      List.iter (show "layer") layer;
      layer
    end
  in
  let correct = failed = 0 in
  print_endline
    (Artifact.to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj (List.map metric metrics));
          ]));
  exit (if correct then 0 else 1)
