(* A fork-join pool of persistent worker domains.

   Determinism is structural, not scheduled: trial [t] always computes
   [f ~trial:t (Prng.split g t)] and lands in slot [t] of the result
   array, so the dynamic assignment of trials to domains (an [Atomic]
   ticket counter) can be arbitrary without affecting any output.  The
   reduction is a sequential fold in trial order on the calling domain. *)

let clamp lo hi v = max lo (min hi v)

(* ------------------------------------------------------------ the pool *)

type pool = {
  lanes : int; (* total lanes, including the submitting domain's lane 0 *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  ready : Condition.t; (* a new epoch's job is available (or stop) *)
  finished : Condition.t; (* all worker lanes of the epoch are done *)
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable remaining : int;
  mutable stop : bool;
  mutable failure : exn option;
}

(* True while this domain is running a lane body; nested combinator calls
   then degrade to sequential loops instead of deadlocking on the pool. *)
let in_lane_key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop pool lane last_epoch =
  Mutex.lock pool.m;
  while (not pool.stop) && pool.epoch = last_epoch do
    Condition.wait pool.ready pool.m
  done;
  if pool.stop then Mutex.unlock pool.m
  else begin
    let epoch = pool.epoch in
    let f = match pool.job with Some f -> f | None -> assert false in
    Mutex.unlock pool.m;
    let outcome = try f lane; None with exn -> Some exn in
    Mutex.lock pool.m;
    (match outcome with
    | Some exn when pool.failure = None -> pool.failure <- Some exn
    | _ -> ());
    pool.remaining <- pool.remaining - 1;
    if pool.remaining = 0 then Condition.broadcast pool.finished;
    Mutex.unlock pool.m;
    worker_loop pool lane epoch
  end

let make_pool lanes =
  let pool =
    {
      lanes;
      workers = [||];
      m = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      stop = false;
      failure = None;
    }
  in
  pool.workers <-
    Array.init (lanes - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_lane_key true;
            worker_loop pool (i + 1) 0));
  pool

let shutdown_pool pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.ready;
  Mutex.unlock pool.m;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* [f] runs once per lane (0 on the calling domain, 1.. on workers); it
   returns only when every lane has finished.  The first exception from
   any lane is re-raised here, caller's lane first. *)
let run_job pool f =
  Mutex.lock pool.m;
  pool.job <- Some f;
  pool.failure <- None;
  pool.remaining <- pool.lanes - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.ready;
  Mutex.unlock pool.m;
  Domain.DLS.set in_lane_key true;
  let mine = (try f 0; None with exn -> Some exn) in
  Domain.DLS.set in_lane_key false;
  Mutex.lock pool.m;
  while pool.remaining > 0 do
    Condition.wait pool.finished pool.m
  done;
  pool.job <- None;
  let theirs = pool.failure in
  Mutex.unlock pool.m;
  match (mine, theirs) with
  | Some exn, _ -> raise exn
  | None, Some exn -> raise exn
  | None, None -> ()

(* ------------------------------------------------------- configuration *)

(* bcc-lint: allow par/global-mutable — written only by set_domain_count on the submitting domain, never from worker lanes *)
let configured : int option ref = ref None

let env_domains () =
  match Sys.getenv_opt "BCC_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when 1 <= v && v <= 64 -> Some v
      | _ ->
          invalid_arg
            (Printf.sprintf "BCC_DOMAINS must be an integer in 1..64, got %S" s))

let domain_count () =
  match !configured with
  | Some d -> d
  | None -> (
      match env_domains () with
      | Some d -> d
      | None -> clamp 1 8 (Domain.recommended_domain_count ()))

(* bcc-lint: allow par/global-mutable — touched only by the submitting domain (shared_pool/shutdown); worker lanes never reach it *)
let shared : pool option ref = ref None

let shutdown () =
  match !shared with
  | None -> ()
  | Some pool ->
      shared := None;
      shutdown_pool pool

let () = at_exit shutdown

let set_domain_count d =
  let d = clamp 1 64 d in
  configured := Some d;
  match !shared with
  | Some pool when pool.lanes <> d -> shutdown ()
  | _ -> ()

let shared_pool lanes =
  match !shared with
  | Some pool when pool.lanes = lanes -> pool
  | Some _ ->
      shutdown ();
      let pool = make_pool lanes in
      shared := Some pool;
      pool
  | None ->
      let pool = make_pool lanes in
      shared := Some pool;
      pool

let parallel_trials_active () = Domain.DLS.get in_lane_key

(* --------------------------------------------------------- combinators *)

(* [tabulate n body]: [| body 0; ...; body (n-1) |], each slot computed
   exactly once, possibly on different domains.  The sequential fallback
   (pool of 1, nested call, or an installed trace sink — traces are
   sequential-only, see docs/PARALLELISM.md) computes the same slots in
   index order, so results never depend on which path ran. *)
let tabulate n body =
  if n < 0 then invalid_arg "Par.tabulate: negative size";
  let lanes = domain_count () in
  if n <= 1 || lanes <= 1 || parallel_trials_active () || Trace.enabled () then
    Array.init n body
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Profiler plumbing: worker lanes re-open the submitting domain's
       span path as context frames, so their busy time merges under the
       span that launched the job and the merged tree (and its call
       counts) is independent of the domain count.  Lane 0 runs on the
       caller and already has the real stack.  All of this is behind one
       flag read; with the profiler off the job runs exactly as before. *)
    let profiling = Prof.enabled () in
    let ctx = if profiling then Prof.current_path () else [] in
    let submit_ns = if profiling then Prof.now_ns () else 0 in
    let lane_body lane =
      let rec loop items =
        let t = Atomic.fetch_and_add next 1 in
        if t < n then begin
          results.(t) <- Some (body t);
          loop (items + 1)
        end
        else items
      in
      if profiling then begin
        let start_ns = Prof.now_ns () in
        let items =
          if lane = 0 then loop 0
          else Prof.with_context ctx (fun () -> loop 0)
        in
        Prof.lane_report ~lane
          ~busy_ns:(Prof.now_ns () - start_ns)
          ~wait_ns:(start_ns - submit_ns)
          ~items
      end
      else ignore (loop 0)
    in
    run_job (shared_pool lanes) lane_body;
    if profiling then Prof.job_report ~wall_ns:(Prof.now_ns () - submit_ns);
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_trials g ~trials f =
  if trials < 0 then invalid_arg "Par.map_trials: negative trials";
  tabulate trials (fun t -> f ~trial:t (Prng.split g t))

let map_reduce g ~trials ~init ~f ~reduce =
  Array.fold_left reduce init (map_trials g ~trials f)

let map_array f xs = tabulate (Array.length xs) (fun i -> f xs.(i))

(* ------------------------------------------------------- lane scratch *)

let lane_scratch create =
  let key = Domain.DLS.new_key create in
  fun () -> Domain.DLS.get key
