(* Hierarchical wall-time profiler; see prof.mli for the contract.

   This file is the tree's single sanctioned wall-clock read: the
   det/wall-clock lint rule exempts exactly lib/obs/prof.ml, so any other
   clock access (including external primitives binding clock_gettime) is
   a lint error.  Everything here is written around two constraints:

   - {b zero cost when disabled}: every instrumentation entry point reads
     one plain [bool ref] ([span] also reads the trace sink's) and
     returns without allocating;
   - {b per-domain state}: span stacks, aggregation trees and event
     buffers are domain-local ([Domain.DLS]), so Bcc_par worker lanes
     profile without contention and without forcing sequential fallbacks
     the way trace sinks do.  [report]/[to_perfetto] read the per-domain
     structures only after the parallel regions they profile have
     completed (the pool's own mutex hand-off publishes the writes). *)

external now_ns : unit -> int = "bcc_prof_clock_monotonic_ns" [@@noalloc]

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

(* ------------------------------------------------------------ counters *)

type counter = Prng_bits | Broadcast_bits | Word_ops

let n_counters = 3

let counter_index = function Prng_bits -> 0 | Broadcast_bits -> 1 | Word_ops -> 2

let counter_name = function
  | Prng_bits -> "prng_bits"
  | Broadcast_bits -> "broadcast_bits"
  | Word_ops -> "word_ops"

let all_counters = [ Prng_bits; Broadcast_bits; Word_ops ]

(* ------------------------------------------------------ per-domain state *)

type tnode = {
  t_name : string;
  mutable t_calls : int;
  mutable t_total_ns : int;
  t_counters : int array;
  t_children : (string, tnode) Hashtbl.t;
}

let fresh_tnode name =
  {
    t_name = name;
    t_calls = 0;
    t_total_ns = 0;
    t_counters = Array.make n_counters 0;
    t_children = Hashtbl.create 8;
  }

type dstate = {
  d_gen : int;
  d_dom : int;
  d_root : tnode;
  (* Open frames, a manual stack in parallel arrays so enter/exit never
     allocate once the capacity is warm. *)
  mutable d_nodes : tnode array;
  mutable d_starts : int array;
  mutable d_ctx : bool array;
  mutable d_depth : int;
  (* Raw span events for the Perfetto exporter, appended in real order so
     the B/E stream is chronological and properly nested per domain. *)
  mutable d_ev_ph : Bytes.t;
  mutable d_ev_name : string array;
  mutable d_ev_ts : int array;
  mutable d_ev_len : int;
  mutable d_ev_dropped : int;
}

(* bcc-lint: allow par/global-mutable — single word flipped only by start/stop on the submitting domain between parallel regions; racy reads are benign (same idiom as Metrics.collecting) *)
let enabled_flag = ref false

(* bcc-lint: allow par/global-mutable — bumped only by reset on the submitting domain while no parallel region is in flight; stale per-domain states compare unequal and are rebuilt *)
let generation = ref 0

(* Guards [states]. *)
let states_guard = Mutex.create ()

(* bcc-lint: allow par/global-mutable — every access goes through states_guard *)
let states : dstate list ref = ref []

let initial_frames = 64
let initial_events = 4096

(* Per-domain event buffers stop growing here (~8 M words per domain at
   worst); overflow is counted and surfaced, never silently truncated. *)
let event_cap = 1 lsl 20

let fresh_dstate () =
  let root = fresh_tnode "" in
  {
    d_gen = !generation;
    d_dom = (Domain.self () :> int);
    d_root = root;
    d_nodes = Array.make initial_frames root;
    d_starts = Array.make initial_frames 0;
    d_ctx = Array.make initial_frames false;
    d_depth = 0;
    d_ev_ph = Bytes.make initial_events ' ';
    d_ev_name = Array.make initial_events "";
    d_ev_ts = Array.make initial_events 0;
    d_ev_len = 0;
    d_ev_dropped = 0;
  }

let dls_key : dstate option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let dstate () =
  let slot = Domain.DLS.get dls_key in
  match !slot with
  | Some st when st.d_gen = !generation -> st
  | _ ->
      let st = fresh_dstate () in
      Mutex.lock states_guard;
      (* bcc-lint: allow par/dls-escape — deliberate registry: drain/reset walk every lane's state under states_guard; only the owning lane mutates st *)
      states := st :: !states;
      Mutex.unlock states_guard;
      slot := Some st;
      st

(* --------------------------------------------------------- pool telemetry *)

type lstat = {
  mutable s_jobs : int;
  mutable s_busy : int;
  mutable s_wait : int;
  mutable s_items : int;
}

(* Guards [lane_stats], [pool_jobs_acc] and [pool_wall_acc]. *)
let pool_guard = Mutex.create ()

(* bcc-lint: allow par/global-mutable — every access goes through pool_guard *)
let lane_stats : (int, lstat) Hashtbl.t = Hashtbl.create 8

(* bcc-lint: allow par/global-mutable — every access goes through pool_guard *)
let pool_jobs_acc = ref 0

(* bcc-lint: allow par/global-mutable — every access goes through pool_guard *)
let pool_wall_acc = ref 0

let lane_report ~lane ~busy_ns ~wait_ns ~items =
  if !enabled_flag then begin
    Mutex.lock pool_guard;
    let s =
      match Hashtbl.find_opt lane_stats lane with
      | Some s -> s
      | None ->
          let s = { s_jobs = 0; s_busy = 0; s_wait = 0; s_items = 0 } in
          Hashtbl.replace lane_stats lane s;
          s
    in
    s.s_jobs <- s.s_jobs + 1;
    s.s_busy <- s.s_busy + busy_ns;
    s.s_wait <- s.s_wait + wait_ns;
    s.s_items <- s.s_items + items;
    Mutex.unlock pool_guard
  end

let job_report ~wall_ns =
  if !enabled_flag then begin
    Mutex.lock pool_guard;
    incr pool_jobs_acc;
    pool_wall_acc := !pool_wall_acc + wall_ns;
    Mutex.unlock pool_guard
  end

(* ------------------------------------------------------------- lifecycle *)

let[@inline] enabled () = !enabled_flag

let reset () =
  enabled_flag := false;
  incr generation;
  Mutex.lock states_guard;
  states := [];
  Mutex.unlock states_guard;
  Mutex.lock pool_guard;
  Hashtbl.reset lane_stats;
  pool_jobs_acc := 0;
  pool_wall_acc := 0;
  Mutex.unlock pool_guard

let start () =
  reset ();
  enabled_flag := true

let stop () = enabled_flag := false

(* ---------------------------------------------------------------- spans *)

let ensure_frame st =
  let cap = Array.length st.d_nodes in
  if st.d_depth >= cap then begin
    let nodes = Array.make (2 * cap) st.d_root in
    Array.blit st.d_nodes 0 nodes 0 cap;
    st.d_nodes <- nodes;
    let starts = Array.make (2 * cap) 0 in
    Array.blit st.d_starts 0 starts 0 cap;
    st.d_starts <- starts;
    let ctx = Array.make (2 * cap) false in
    Array.blit st.d_ctx 0 ctx 0 cap;
    st.d_ctx <- ctx
  end

let record_event st ph name ts =
  let cap = Array.length st.d_ev_ts in
  if st.d_ev_len >= cap && cap < event_cap then begin
    let ncap = min event_cap (2 * cap) in
    let b = Bytes.make ncap ' ' in
    Bytes.blit st.d_ev_ph 0 b 0 cap;
    st.d_ev_ph <- b;
    let names = Array.make ncap "" in
    Array.blit st.d_ev_name 0 names 0 cap;
    st.d_ev_name <- names;
    let tss = Array.make ncap 0 in
    Array.blit st.d_ev_ts 0 tss 0 cap;
    st.d_ev_ts <- tss
  end;
  if st.d_ev_len >= Array.length st.d_ev_ts then
    st.d_ev_dropped <- st.d_ev_dropped + 1
  else begin
    Bytes.unsafe_set st.d_ev_ph st.d_ev_len ph;
    st.d_ev_name.(st.d_ev_len) <- name;
    st.d_ev_ts.(st.d_ev_len) <- ts;
    st.d_ev_len <- st.d_ev_len + 1
  end

let child_of parent name =
  match Hashtbl.find_opt parent.t_children name with
  | Some n -> n
  | None ->
      let n = fresh_tnode name in
      Hashtbl.replace parent.t_children name n;
      n

let enter_how ~ctx name =
  let st = dstate () in
  let parent =
    if st.d_depth = 0 then st.d_root else st.d_nodes.(st.d_depth - 1)
  in
  let node = child_of parent name in
  ensure_frame st;
  let t = now_ns () in
  st.d_nodes.(st.d_depth) <- node;
  st.d_starts.(st.d_depth) <- t;
  st.d_ctx.(st.d_depth) <- ctx;
  st.d_depth <- st.d_depth + 1;
  record_event st 'B' name t

(* bcc-lint: noalloc *)
let enter name = if !enabled_flag then enter_how ~ctx:false name

let exit () =
  if !enabled_flag then begin
    let st = dstate () in
    if st.d_depth > 0 then begin
      st.d_depth <- st.d_depth - 1;
      let node = st.d_nodes.(st.d_depth) in
      let start = st.d_starts.(st.d_depth) in
      let ctx = st.d_ctx.(st.d_depth) in
      let t1 = now_ns () in
      node.t_total_ns <- node.t_total_ns + (t1 - start);
      if not ctx then node.t_calls <- node.t_calls + 1;
      record_event st 'E' node.t_name t1
    end
  end

(* Both flags are read once, on entry: the body closes only what was
   opened, whatever it does to the profiler or the sink. *)
let span name f =
  let profiling = !enabled_flag and traced = Trace.enabled () in
  if not (profiling || traced) then f ()
  else begin
    if profiling then enter name;
    if traced then Trace.emit ~scope:"span" (Trace.Span_start { name });
    Fun.protect f ~finally:(fun () ->
        if traced then Trace.emit ~scope:"span" (Trace.Span_end { name });
        if profiling then exit ())
  end

(* bcc-lint: noalloc *)
let add c by =
  if !enabled_flag then begin
    let st = dstate () in
    let node =
      if st.d_depth = 0 then st.d_root else st.d_nodes.(st.d_depth - 1)
    in
    let i = counter_index c in
    node.t_counters.(i) <- node.t_counters.(i) + by
  end

let current_path () =
  if not !enabled_flag then []
  else begin
    let st = dstate () in
    (* bcc-lint: allow par/dls-escape — List.init runs its closure synchronously before returning; st never leaves this call *)
    List.init st.d_depth (fun i -> st.d_nodes.(i).t_name)
  end

let with_context path f =
  if (not !enabled_flag) || path = [] then f ()
  else begin
    let count = List.length path in
    List.iter (enter_how ~ctx:true) path;
    Fun.protect f ~finally:(fun () ->
        for _ = 1 to count do
          exit ()
        done)
  end

(* --------------------------------------------------------------- reports *)

type node = {
  name : string;
  calls : int;
  total_ns : int;
  self_ns : int;
  counters : (string * int) list;
  children : node list;
}

type lane_stat = {
  lane : int;
  jobs : int;
  busy_ns : int;
  wait_ns : int;
  items : int;
}

type report = {
  spans : node list;
  root_counters : (string * int) list;
  lanes : lane_stat list;
  pool_jobs : int;
  pool_wall_ns : int;
  dropped_events : int;
}

let sorted_child_names tns =
  List.concat_map
    (fun t ->
      (* bcc-lint: allow det/hashtbl-order — the collected keys are sort_uniq'd on the next line *)
      Hashtbl.fold (fun k _ acc -> k :: acc) t.t_children [])
    tns
  |> List.sort_uniq String.compare

let merged_counters tns =
  List.filter_map
    (fun c ->
      let i = counter_index c in
      let v = List.fold_left (fun a t -> a + t.t_counters.(i)) 0 tns in
      if v = 0 then None else Some (counter_name c, v))
    all_counters
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Merge the same-named tnodes of several domain trees into one reported
   node; children are unioned by name and sorted, so the merged tree is
   independent of domain registration order. *)
let rec merge_nodes name tns =
  let calls = List.fold_left (fun a t -> a + t.t_calls) 0 tns in
  let total = List.fold_left (fun a t -> a + t.t_total_ns) 0 tns in
  let children =
    List.map
      (fun cname ->
        merge_nodes cname
          (List.filter_map (fun t -> Hashtbl.find_opt t.t_children cname) tns))
      (sorted_child_names tns)
  in
  let child_total = List.fold_left (fun a c -> a + c.total_ns) 0 children in
  {
    name;
    calls;
    total_ns = total;
    self_ns = max 0 (total - child_total);
    counters = merged_counters tns;
    children;
  }

let snapshot_states () =
  Mutex.lock states_guard;
  let sts = !states in
  Mutex.unlock states_guard;
  sts

let report () =
  let sts = snapshot_states () in
  let merged = merge_nodes "" (List.map (fun st -> st.d_root) sts) in
  Mutex.lock pool_guard;
  let lanes =
    (* bcc-lint: allow det/hashtbl-order — rows are sorted by lane id below *)
    Hashtbl.fold
      (fun lane s acc ->
        { lane; jobs = s.s_jobs; busy_ns = s.s_busy; wait_ns = s.s_wait; items = s.s_items }
        :: acc)
      lane_stats []
  in
  let pool_jobs = !pool_jobs_acc and pool_wall_ns = !pool_wall_acc in
  Mutex.unlock pool_guard;
  {
    spans = merged.children;
    root_counters = merged.counters;
    lanes = List.sort (fun a b -> Int.compare a.lane b.lane) lanes;
    pool_jobs;
    pool_wall_ns;
    dropped_events =
      List.fold_left (fun a st -> a + st.d_ev_dropped) 0 sts;
  }

let sum_self_ns r =
  let rec go acc n = List.fold_left go (acc + n.self_ns) n.children in
  List.fold_left go 0 r.spans

(* ------------------------------------------------------------- exporters *)

let counters_json = function
  | [] -> []
  | cs -> [ ("counters", Artifact.Obj (List.map (fun (n, v) -> (n, Artifact.Int v)) cs)) ]

(* The deterministic half: names, call counts, counters.  No timings, so
   the bytes diff cleanly across runs and domain counts. *)
let rec comparison_node n =
  Artifact.Obj
    ([ ("name", Artifact.String n.name); ("calls", Artifact.Int n.calls) ]
    @ counters_json n.counters
    @
    match n.children with
    | [] -> []
    | cs -> [ ("children", Artifact.List (List.map comparison_node cs)) ])

let comparison_json r =
  Artifact.Obj
    (counters_json r.root_counters
    @ [ ("spans", Artifact.List (List.map comparison_node r.spans)) ])

let rec telemetry_node n =
  Artifact.Obj
    ([
       ("name", Artifact.String n.name);
       ("total_ns", Artifact.Int n.total_ns);
       ("self_ns", Artifact.Int n.self_ns);
     ]
    @
    match n.children with
    | [] -> []
    | cs -> [ ("children", Artifact.List (List.map telemetry_node cs)) ])

let telemetry_json r =
  Artifact.Obj
    [
      ("spans", Artifact.List (List.map telemetry_node r.spans));
      ( "pool",
        Artifact.Obj
          [
            ("jobs", Artifact.Int r.pool_jobs);
            ("wall_ns", Artifact.Int r.pool_wall_ns);
            ( "lanes",
              Artifact.List
                (List.map
                   (fun l ->
                     Artifact.Obj
                       [
                         ("lane", Artifact.Int l.lane);
                         ("jobs", Artifact.Int l.jobs);
                         ("busy_ns", Artifact.Int l.busy_ns);
                         ("wait_ns", Artifact.Int l.wait_ns);
                         ("items", Artifact.Int l.items);
                       ])
                   r.lanes) );
          ] );
      ("dropped_events", Artifact.Int r.dropped_events);
    ]

let to_artifact ~id ?seed r =
  Artifact.make ~kind:"prof" ~id ?seed
    ~params:
      [ ("deterministic_sections", Artifact.List [ Artifact.String "comparison" ]) ]
    (Artifact.Obj
       [ ("comparison", comparison_json r); ("telemetry", telemetry_json r) ])

let to_perfetto () =
  let sts =
    snapshot_states () |> List.sort (fun a b -> Int.compare a.d_dom b.d_dom)
  in
  let t0 =
    List.fold_left
      (fun acc st -> if st.d_ev_len > 0 then min acc st.d_ev_ts.(0) else acc)
      max_int sts
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let events = ref [] in
  let emit ph name ts tid =
    events :=
      Artifact.Obj
        [
          ("name", Artifact.String name);
          ("cat", Artifact.String "prof");
          ("ph", Artifact.String ph);
          ("ts", Artifact.Float (float_of_int (ts - t0) /. 1e3));
          ("pid", Artifact.Int 1);
          ("tid", Artifact.Int tid);
        ]
      :: !events
  in
  List.iter
    (fun st ->
      let tid = st.d_dom in
      events :=
        Artifact.Obj
          [
            ("name", Artifact.String "thread_name");
            ("ph", Artifact.String "M");
            ("pid", Artifact.Int 1);
            ("tid", Artifact.Int tid);
            ( "args",
              Artifact.Obj
                [ ("name", Artifact.String (Printf.sprintf "domain %d" tid)) ] );
          ]
        :: !events;
      (* The per-domain stream is chronological and nested by
         construction; replay a stack anyway so a capped buffer or a span
         left open at [stop] still exports matched B/E pairs. *)
      let stack = ref [] in
      let last = ref t0 in
      for i = 0 to st.d_ev_len - 1 do
        let ph = Bytes.get st.d_ev_ph i in
        let name = st.d_ev_name.(i) in
        let ts = st.d_ev_ts.(i) in
        last := ts;
        if ph = 'B' then begin
          stack := name :: !stack;
          emit "B" name ts tid
        end
        else
          match !stack with
          | top :: rest ->
              stack := rest;
              emit "E" top ts tid
          | [] -> ()
      done;
      List.iter (fun name -> emit "E" name !last tid) !stack)
    sts;
  Artifact.to_string
    (Artifact.Obj
       [
         ("traceEvents", Artifact.List (List.rev !events));
         ("displayTimeUnit", Artifact.String "ms");
       ])

(* ---------------------------------------------------------- console view *)

let pp_report ?(top = 10) fmt r =
  let ms ns = float_of_int ns /. 1e6 in
  Format.fprintf fmt "%-52s %12s %12s %8s@." "span" "total ms" "self ms" "calls";
  Format.fprintf fmt "%s@." (String.make 88 '-');
  let rec walk depth n =
    let label = String.make (2 * depth) ' ' ^ n.name in
    (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
    Format.fprintf fmt "%-52s %12.3f %12.3f %8d@." label (ms n.total_ns)
      (ms n.self_ns) n.calls;
    List.iter
      (fun (cn, v) -> Format.fprintf fmt "%-52s     %s=%d@." "" cn v)
      n.counters;
    List.iter (walk (depth + 1)) n.children
  in
  List.iter (walk 0) r.spans;
  if r.root_counters <> [] then begin
    Format.fprintf fmt "(outside any span)@.";
    List.iter
      (fun (cn, v) -> Format.fprintf fmt "%-52s     %s=%d@." "" cn v)
      r.root_counters
  end;
  (* Top-k flat view by self time. *)
  let rec flatten prefix n acc =
    let path = if prefix = "" then n.name else prefix ^ "/" ^ n.name in
    List.fold_left (fun acc c -> flatten path c acc) ((path, n) :: acc) n.children
  in
  let ranked =
    List.fold_left (fun acc n -> flatten "" n acc) [] r.spans
    |> List.sort (fun (pa, a) (pb, b) ->
           match Int.compare b.self_ns a.self_ns with
           | 0 -> String.compare pa pb
           | c -> c)
  in
  if ranked <> [] then begin
    Format.fprintf fmt "@.top %d spans by self time@." top;
    Format.fprintf fmt "%-64s %12s %8s@." "path" "self ms" "calls";
    Format.fprintf fmt "%s@." (String.make 88 '-');
    List.iteri
      (fun i (path, n) ->
        if i < top then
          (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
          Format.fprintf fmt "%-64s %12.3f %8d@." path (ms n.self_ns) n.calls)
      ranked
  end;
  if r.lanes <> [] then begin
    (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
    Format.fprintf fmt "@.pool telemetry (%d jobs, %.3f ms submitted wall)@."
      r.pool_jobs (ms r.pool_wall_ns);
    Format.fprintf fmt "%-8s %8s %12s %12s %10s@." "lane" "jobs" "busy ms"
      "wait ms" "items";
    Format.fprintf fmt "%s@." (String.make 56 '-');
    List.iter
      (fun l ->
        (* bcc-lint: allow det/float-format — human console report; artifact bytes go through to_artifact *)
        Format.fprintf fmt "%-8d %8d %12.3f %12.3f %10d@." l.lane l.jobs
          (ms l.busy_ns) (ms l.wait_ns) l.items)
      r.lanes
  end;
  if r.dropped_events > 0 then
    Format.fprintf fmt "@.(%d span events dropped after the per-domain cap)@."
      r.dropped_events
