(* Benchmark-side spans: [Prof.span] plus, charged to the span's name,
   the call's wall time on the calling domain and the process's resource
   deltas across the call.

   The wall time is read with [Prof.now_ns] around the call, so it is
   the op time the call costs its caller even when the call fans out
   over Par lanes (a span's [Prof] total adds up every lane's busy time
   under it).  Minor page faults come from /proc/self/stat and VmRSS
   from /proc/self/status, so they are process-wide: a span running on
   one Par lane is also charged whatever the other lanes faulted
   meanwhile.  GC words come from [Gc.quick_stat], which in OCaml 5.1
   may lag the other domains' allocation.  Both are reported as
   approximate.  With the profiler off a span is a plain call. *)

type totals = {
  wall_ns : int;  (** wall time on the calling domain, summed over calls *)
  minflt : int;
  rss_kb : int;  (** VmRSS growth, summed over calls *)
  minor_words : float;
  major_words : float;
}

let zero = { wall_ns = 0; minflt = 0; rss_kb = 0; minor_words = 0.0; major_words = 0.0 }
let guard = Mutex.create ()
let table : (string, totals) Hashtbl.t = Hashtbl.create 16

let get name =
  Mutex.protect guard (fun () ->
      Option.value ~default:zero (Hashtbl.find_opt table name))

type sample = { st : Procfs.stat; rss : int; gc : Gc.stat }

let sample () =
  {
    st = Procfs.self_stat ();
    rss = Option.value ~default:0 (Procfs.self_status_kb "VmRSS");
    gc = Gc.quick_stat ();
  }

let charge name ~wall_ns b a =
  Mutex.protect guard (fun () ->
      let t = Option.value ~default:zero (Hashtbl.find_opt table name) in
      Hashtbl.replace table name
        {
          wall_ns = t.wall_ns + wall_ns;
          minflt = t.minflt + (a.st.minflt - b.st.minflt);
          rss_kb = t.rss_kb + (a.rss - b.rss);
          minor_words = t.minor_words +. (a.gc.minor_words -. b.gc.minor_words);
          major_words = t.major_words +. (a.gc.major_words -. b.gc.major_words);
        })

let span name f =
  if not (Prof.enabled ()) then f ()
  else begin
    let before = sample () in
    let t0 = Prof.now_ns () in
    let r = Prof.span name f in
    let wall_ns = Prof.now_ns () - t0 in
    charge name ~wall_ns before (sample ());
    r
  end
