(* Command-line driver.

     bcc_cli [run] [IDS...]      run experiment tables (the default)
     bcc_cli trace PROTO         run a named protocol with a trace sink
     bcc_cli metrics [IDS...]    run experiments and dump the metrics registry
     bcc_cli prof TARGET         run an experiment or protocol under the profiler
     bcc_cli lint [ARGS...]      run the two-pass linter (delegates to bcc_lint)

   `bcc_cli e1 e2` (no subcommand) keeps working: `run` is the default.
   A malformed BCC_DOMAINS or BCC_E31_N stops every command with exit
   124 before it starts. *)

open Cmdliner

(* Every command that writes files checks its output directory before it
   runs, and writes through [Artifact]; a path it cannot write is a usage
   error (exit 124, one line on stderr), not an uncaught exception. *)
let writing f = try f () with Sys_error msg -> Error (`Msg msg)

(* Every name a command is given is checked before it runs any, so an
   unknown one is a usage error with one stderr line and no output. *)
let check_known ~what ~known ~is_known names =
  match List.filter (fun name -> not (is_known name)) names with
  | [] -> Ok ()
  | unknown ->
      Error
        (`Msg
           (Printf.sprintf "unknown %s %s (known: %s)" what
              (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
              (String.concat ", " known)))

(* Experiment ids are matched as [Experiments.by_id] matches them, case
   aside; protocol names exactly. *)
let check_experiments =
  check_known ~what:"experiment" ~known:Experiments.ids ~is_known:(fun id ->
      Option.is_some (Experiments.by_id id))

let check_protocols =
  check_known ~what:"protocol" ~known:Runner.names ~is_known:(fun name ->
      List.mem name Runner.names)

(* ----------------------------------------------------------------- run *)

let run_experiments list_only csv artifacts_dir ids seed =
  if list_only then begin
    List.iter (Format.printf "%s@.") Experiments.ids;
    Ok ()
  end
  else
    Result.bind (check_experiments ids)
    @@ fun () ->
    writing @@ fun () ->
    Option.iter Artifact.ensure_dir artifacts_dir;
    let targets =
      match ids with
      | [] -> Experiments.ids
      | ids -> ids
    in
    List.iter
      (fun id ->
        let table = (Option.get (Experiments.by_id id)) ~seed () in
        if csv then print_string (Experiments.to_csv table)
        else Experiments.print Format.std_formatter table;
        Option.iter
          (fun dir ->
            let path = Experiments.write_artifact ~dir ~seed table in
            Format.eprintf "wrote %s@." path)
          artifacts_dir)
      targets;
    Ok ()

let list_arg =
  let doc = "List the known experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let csv_arg =
  let doc = "Emit tables as CSV instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let artifacts_arg =
  let doc = "Also write each table as an EXP_<id>.json artifact under $(docv)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR" ~doc)

let ids_arg =
  let doc = "Experiment ids to run (e1..e30); all when omitted." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let seed_arg =
  let doc = "PRNG seed shared by all experiments." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let run_term =
  Term.(
    term_result
      (const run_experiments $ list_arg $ csv_arg $ artifacts_arg $ ids_arg
     $ seed_arg))

let run_cmd =
  let doc = "Run experiment tables (the default command)" in
  Cmd.v (Cmd.info "run" ~doc) run_term

(* --------------------------------------------------------------- trace *)

let run_trace list_only jsonl out proto seed =
  if list_only then begin
    List.iter
      (fun name ->
        Format.printf "%-16s %s@." name
          (Option.value (Runner.describe name) ~default:""))
      Runner.names;
    Ok ()
  end
  else
    match proto with
    | None -> Error (`Msg "missing PROTO argument (try --list)")
    | Some name ->
        Result.bind (check_protocols [ name ])
        @@ fun () ->
        writing @@ fun () ->
        Option.iter
          (fun path ->
            Artifact.ensure_dir (Filename.dirname path);
            if Sys.file_exists path && Sys.is_directory path then
              raise (Sys_error (path ^ ": Is a directory")))
          out;
        let text =
          if jsonl then
            let events, _summary = Runner.trace ~name ~seed in
            Sink.to_jsonl events
          else
            Artifact.to_string ~pretty:true (Runner.trace_artifact ~name ~seed)
            ^ "\n"
        in
        (match out with
        | None -> print_string text
        | Some path ->
            Artifact.write_text ~path text;
            Format.eprintf "wrote %s@." path);
        Ok ()

let trace_list_arg =
  let doc = "List the traceable protocol names and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let jsonl_arg =
  let doc =
    "Emit raw JSONL (one event per line) instead of the wrapped artifact."
  in
  Arg.(value & flag & info [ "jsonl" ] ~doc)

let out_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let proto_arg =
  let doc = "Named protocol to trace (see --list)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"PROTO" ~doc)

let trace_cmd =
  let doc = "Run a named protocol with a trace sink attached and dump the events" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      term_result
        (const run_trace $ trace_list_arg $ jsonl_arg $ out_arg $ proto_arg
       $ seed_arg))

(* ------------------------------------------------------------- metrics *)

let run_metrics json protos replicas ids seed =
  if replicas < 1 then Error (`Msg "--replicas must be >= 1")
  else
    Result.bind (check_protocols protos)
    @@ fun () ->
    Result.bind (check_experiments ids)
    @@ fun () ->
    Metrics.set_collecting true;
    List.iter
      (fun name ->
        if replicas = 1 then ignore (Runner.run ~name ~seed)
        else ignore (Runner.run_replicas ~name ~seed ~replicas))
      protos;
    let targets = if ids = [] && protos = [] then Experiments.ids else ids in
    List.iter (fun id -> ignore ((Option.get (Experiments.by_id id)) ~seed ())) targets;
    Metrics.set_collecting false;
    if json then print_string (Metrics.to_json () ^ "\n")
    else Metrics.pp Format.std_formatter (Metrics.snapshot ());
    Ok ()

let metrics_json_arg =
  let doc = "Emit the metrics snapshot as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_proto_arg =
  let doc = "Also run the named protocol(s) (as in $(b,trace)) before dumping." in
  Arg.(value & opt_all string [] & info [ "proto" ] ~docv:"PROTO" ~doc)

let metrics_replicas_arg =
  let doc =
    "Run each $(b,--proto) as $(docv) independent replicas (seeds SEED, \
     SEED+1, ...), fanned out across domains (see $(b,BCC_DOMAINS))."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)

let metrics_cmd =
  let doc =
    "Run experiments (all by default) with the metrics registry collecting, \
     then dump the snapshot"
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      term_result
        (const run_metrics $ metrics_json_arg $ metrics_proto_arg
       $ metrics_replicas_arg $ ids_arg $ seed_arg))

(* ----------------------------------------------------------------- prof *)

(* Run one experiment id or Runner protocol under the profiler, print the
   span tree + top-k report with a wall-clock coverage line, and write
   PROF_<target>.json (deterministic comparison payload + telemetry) and
   PROF_<target>.trace.json (Chrome/Perfetto trace events). *)
let run_prof list_only dir top target seed =
  if list_only then begin
    List.iter (Format.printf "%s@.") Experiments.ids;
    List.iter (Format.printf "%s@.") Runner.names;
    Ok ()
  end
  else
    let launch =
      match target with
      | None -> Error (`Msg "missing TARGET argument (try --list)")
      | Some t -> (
          match Experiments.by_id t with
          | Some f -> Ok (t, fun () -> ignore (f ~seed ()))
          | None ->
              if List.mem t Runner.names then
                Ok (t, fun () -> ignore (Runner.run ~name:t ~seed))
              else
                Error
                  (`Msg
                     (Printf.sprintf
                        "unknown target %S (experiments: %s; protocols: %s)" t
                        (String.concat ", " Experiments.ids)
                        (String.concat ", " Runner.names))))
    in
    match launch with
    | Error e -> Error e
    | Ok (name, body) ->
        writing @@ fun () ->
        Artifact.ensure_dir dir;
        Prof.start ();
        let (), wall = Prof.time body in
        Prof.stop ();
        let r = Prof.report () in
        Prof.pp_report ~top Format.std_formatter r;
        let wall_ns = int_of_float (wall *. 1e9) in
        let self_ns = Prof.sum_self_ns r in
        (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
        Format.printf "@.wall %.3f ms, span self-time coverage %.1f%%@."
          (wall *. 1e3)
          (if wall_ns = 0 then 0.0
           else 100.0 *. float_of_int self_ns /. float_of_int wall_ns);
        let json_path = Filename.concat dir (Printf.sprintf "PROF_%s.json" name) in
        let trace_path =
          Filename.concat dir (Printf.sprintf "PROF_%s.trace.json" name)
        in
        Artifact.write_file ~path:json_path (Prof.to_artifact ~id:name ~seed r);
        Artifact.write_text ~path:trace_path (Prof.to_perfetto () ^ "\n");
        Format.eprintf "wrote %s@.wrote %s@." json_path trace_path;
        Ok ()

let prof_list_arg =
  let doc = "List the profilable targets (experiment ids, then protocols)." in
  Arg.(value & flag & info [ "list" ] ~doc)

let prof_dir_arg =
  let doc = "Directory for PROF_<target>.json and PROF_<target>.trace.json." in
  Arg.(value & opt string Artifact.default_dir & info [ "out" ] ~docv:"DIR" ~doc)

let prof_top_arg =
  let doc = "Rows in the top-spans-by-self-time table." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)

let prof_target_arg =
  let doc = "Experiment id (e1..e29) or protocol name to profile (see --list)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let prof_cmd =
  let doc =
    "Run an experiment or protocol under the hierarchical profiler and dump \
     the span tree, PROF json and a Perfetto trace"
  in
  Cmd.v (Cmd.info "prof" ~doc)
    Term.(
      term_result
        (const run_prof $ prof_list_arg $ prof_dir_arg $ prof_top_arg
       $ prof_target_arg $ seed_arg))

(* --------------------------------------------------------------- lint *)

(* `bcc_cli lint ...` delegates to the bcc_lint executable built next to
   this one, passing every remaining argument through untouched, so
   cmdliner never has to mirror the linter's flag vocabulary.  bcc_lint
   stays a separate binary on purpose: linking compiler-libs here would
   shadow Bcc_obs.Trace with compiler-libs' Trace. *)
let lint_exec args =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir "bcc_lint.exe"; Filename.concat dir "bcc_lint" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None ->
      prerr_endline
        "bcc_cli lint: bcc_lint executable not found next to bcc_cli";
      exit 2
  | Some exe -> (
      try Unix.execv exe (Array.of_list (exe :: args))
      with Unix.Unix_error _ ->
        exit (Sys.command (Filename.quote_command exe args)))

let lint_cmd =
  let doc =
    "Run the two-pass determinism & domain-safety linter (delegates to the \
     bcc_lint executable; see bcc_lint --help for its flags)"
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const lint_exec $ const [])

(* ---------------------------------------------------------------- main *)

(* The environment knobs, checked before any command runs so that a
   malformed value is a usage error rather than an uncaught exception
   deep inside an experiment.  Unset or empty means the default; each
   accepts exactly what its reader in lib/ accepts ([Par.env_domains]
   reads BCC_DOMAINS, and its message names the range). *)
let knob_error name ~range valid =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s when valid s -> None
  | Some s -> Some (Printf.sprintf "%s must be an integer %s, got %S" name range s)

let () =
  [
    (match Par.env_domains () with
    | _ -> None
    | exception Invalid_argument msg -> Some msg);
    knob_error "BCC_E31_N" ~range:">= 4096" (fun s ->
        match int_of_string_opt s with Some v -> v >= 4096 | None -> false);
  ]
  |> List.iter
       (Option.iter (fun msg ->
            prerr_endline ("bcc_cli: " ^ msg);
            exit Cmd.Exit.cli_error))

let cmds = [ run_cmd; trace_cmd; metrics_cmd; prof_cmd; lint_cmd ]

let cmd =
  let doc = "Reproduce the experiments for Chen-Grossman PODC'19 (Broadcast Congested Clique)" in
  let envs =
    [
      Cmd.Env.info "BCC_DOMAINS"
        ~doc:
          "Number of domains (cores) used by the parallel Monte-Carlo trial \
           loops, 1 to 64; experiment tables are byte-identical for every \
           value (defaults to the machine's recommended domain count, capped \
           at 8; see docs/PARALLELISM.md).";
      Cmd.Env.info "BCC_E31_N"
        ~doc:
          "Vertex count for e31, at least 4096 (defaults to 10^6, which needs \
           ~16 GB).";
    ]
  in
  let info = Cmd.info "bcc_cli" ~doc ~envs in
  Cmd.group ~default:run_term info cmds

(* Keep `bcc_cli e1 e2` working: a leading positional that is not a
   subcommand name is an experiment id for the default `run` command. *)
let argv =
  let argv = Sys.argv in
  if
    Array.length argv > 1
    && (not (List.mem argv.(1) (List.map Cmd.name cmds)))
    && String.length argv.(1) > 0
    && argv.(1).[0] <> '-'
  then Array.concat [ [| argv.(0); "run" |]; Array.sub argv 1 (Array.length argv - 1) ]
  else argv

(* Hand the linter its raw argument vector before cmdliner parses
   anything: bcc_lint owns its own flags (--json, --sarif, --cmt-dir,
   ...) and they should not need re-declaring here. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "lint" then
    lint_exec
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))

let () = exit (Cmd.eval ~argv cmd)
