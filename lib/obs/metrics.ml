(* A process-wide registry of named counters, fixed-bucket histograms,
   and binomial ratios (Monte-Carlo estimates with Wilson intervals).
   Handles are cheap mutable records; [snapshot] freezes the registry
   into a value the artifact layer can serialize.

   Domain safety: registration, every handle update, [snapshot] and
   [reset] take one process-wide mutex, so trial bodies fanned out by
   Bcc_par can update shared handles and the merged totals are exact.
   The critical sections are a few machine instructions; an uncontended
   lock/unlock costs ~20 ns, which only ever appears on paths that are
   already updating a metric.  [collecting] stays a plain (atomic by the
   OCaml memory model) ref read so un-instrumented code pays a single
   branch and never touches the lock. *)

type counter = { c_name : string; mutable c_count : int }

type histogram = {
  h_name : string;
  h_buckets : float array; (* strictly increasing upper bounds *)
  h_counts : int array; (* length = len buckets + 1; last is overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type ratio = { r_name : string; mutable r_successes : int; mutable r_trials : int }

type metric =
  | M_counter of counter
  | M_histogram of histogram
  | M_ratio of ratio

(* bcc-lint: allow par/global-mutable — every access goes through [locked], i.e. the [guard] mutex below *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Guards the registry table and every mutable field of every metric. *)
let guard = Mutex.create ()

let[@inline] locked f =
  Mutex.lock guard;
  match f () with
  | v ->
      Mutex.unlock guard;
      v
  | exception exn ->
      Mutex.unlock guard;
      raise exn

(* Gates the simulator's built-in instrumentation (per-run counters and
   histograms in [Bcast.run] / [Unicast.run]); explicit handle updates
   always apply.  Off by default so un-instrumented benchmarks pay one
   branch, nothing more. *)
(* bcc-lint: allow par/global-mutable — single word flipped only between runs on the submitting domain; racy reads are benign (see header comment) *)
let collecting_flag = ref false
let set_collecting b = collecting_flag := b
let[@inline] collecting () = !collecting_flag

let register name make describe_kind select =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          (match select m with
          | Some h -> h
          | None -> assert false)
      | Some m -> (
          match select m with
          | Some h -> h
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Metrics: %S already registered with another kind (wanted %s)"
                   name describe_kind)))

let counter name =
  register name
    (fun () -> M_counter { c_name = name; c_count = 0 })
    "counter"
    (function M_counter c -> Some c | _ -> None)

let inc ?(by = 1) c = locked (fun () -> c.c_count <- c.c_count + by)

(* bcc-lint: allow par/global-mutable — read-only bucket template, copied at histogram registration, never written *)
let default_buckets = [| 1.0; 10.0; 100.0; 1000.0; 10_000.0; 100_000.0 |]

let histogram ?(buckets = default_buckets) name =
  let ok = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
    buckets;
  if Array.length buckets = 0 || not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty and strictly increasing";
  register name
    (fun () ->
      M_histogram
        {
          h_name = name;
          h_buckets = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.0;
          h_count = 0;
        })
    "histogram"
    (function M_histogram h -> Some h | _ -> None)

let observe h x =
  let nb = Array.length h.h_buckets in
  let i = ref 0 in
  while !i < nb && x > h.h_buckets.(!i) do
    incr i
  done;
  locked (fun () ->
      h.h_counts.(!i) <- h.h_counts.(!i) + 1;
      h.h_sum <- h.h_sum +. x;
      h.h_count <- h.h_count + 1)

let ratio name =
  register name
    (fun () -> M_ratio { r_name = name; r_successes = 0; r_trials = 0 })
    "ratio"
    (function M_ratio r -> Some r | _ -> None)

let record r ~success =
  locked (fun () ->
      r.r_trials <- r.r_trials + 1;
      if success then r.r_successes <- r.r_successes + 1)

let record_many r ~successes ~trials =
  if successes < 0 || trials < 0 || successes > trials then
    invalid_arg "Metrics.record_many";
  locked (fun () ->
      r.r_successes <- r.r_successes + successes;
      r.r_trials <- r.r_trials + trials)

(* ------------------------------------------------------------ snapshot *)

type value =
  | Counter of int
  | Histogram of { buckets : float array; counts : int array; sum : float; count : int }
  | Ratio of {
      successes : int;
      trials : int;
      estimate : float;
      wilson_low : float;
      wilson_high : float;
      half_width : float;
    }

type sample = { name : string; value : value }

let wilson_z = 1.96

let sample_of_metric = function
  | M_counter c -> { name = c.c_name; value = Counter c.c_count }
  | M_histogram h ->
      {
        name = h.h_name;
        value =
          Histogram
            {
              buckets = Array.copy h.h_buckets;
              counts = Array.copy h.h_counts;
              sum = h.h_sum;
              count = h.h_count;
            };
      }
  | M_ratio r ->
      let lo, hi =
        Stats.wilson_interval ~successes:r.r_successes ~trials:r.r_trials ~z:wilson_z
      in
      let estimate =
        if r.r_trials = 0 then 0.0
        else float_of_int r.r_successes /. float_of_int r.r_trials
      in
      {
        name = r.r_name;
        value =
          Ratio
            {
              successes = r.r_successes;
              trials = r.r_trials;
              estimate;
              wilson_low = lo;
              wilson_high = hi;
              half_width = (hi -. lo) /. 2.0;
            };
      }

let snapshot () =
  locked (fun () ->
      (* bcc-lint: allow det/hashtbl-order — samples are sorted by name on the next line *)
      Hashtbl.fold (fun _ m acc -> sample_of_metric m :: acc) registry [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let reset () =
  (* Zero in place rather than emptying the table: long-lived handles
     (the simulator caches its own) stay registered and visible. *)
  locked (fun () ->
      (* bcc-lint: allow det/hashtbl-order — zeroes every metric in place; order cannot matter *)
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> c.c_count <- 0
          | M_histogram h ->
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              h.h_sum <- 0.0;
              h.h_count <- 0
          | M_ratio r ->
              r.r_successes <- 0;
              r.r_trials <- 0)
        registry)

(* --------------------------------------------------------------- views *)

let value_to_json = function
  | Counter v -> Artifact.Obj [ ("type", String "counter"); ("value", Int v) ]
  | Histogram { buckets; counts; sum; count } ->
      Artifact.Obj
        [
          ("type", String "histogram");
          ("buckets", List (Array.to_list (Array.map (fun b -> Artifact.Float b) buckets)));
          ("counts", List (Array.to_list (Array.map (fun c -> Artifact.Int c) counts)));
          ("sum", Float sum);
          ("count", Int count);
        ]
  | Ratio { successes; trials; estimate; wilson_low; wilson_high; half_width } ->
      Artifact.Obj
        [
          ("type", String "ratio");
          ("successes", Int successes);
          ("trials", Int trials);
          ("estimate", Float estimate);
          ("wilson_low", Float wilson_low);
          ("wilson_high", Float wilson_high);
          ("half_width", Float half_width);
          ("z", Float wilson_z);
        ]

let samples_to_json samples =
  Artifact.Obj (List.map (fun s -> (s.name, value_to_json s.value)) samples)

let snapshot_artifact ?(id = "snapshot") ?seed () =
  Artifact.make ~kind:"metrics" ~id ?seed (samples_to_json (snapshot ()))

let to_json () = Artifact.to_string ~pretty:true (snapshot_artifact ())

let pp fmt samples =
  List.iter
    (fun s ->
      match s.value with
      | Counter v -> Format.fprintf fmt "%-45s counter    %d@." s.name v
      | Histogram { sum; count; buckets; counts } ->
          (* bcc-lint: allow det/float-format — human console dump; artifact bytes go through to_json *)
          Format.fprintf fmt "%-45s histogram  count=%d mean=%g@." s.name count
            (if count = 0 then 0.0 else sum /. float_of_int count);
          Array.iteri
            (fun i c ->
              if c > 0 then
                if i < Array.length buckets then
                  (* bcc-lint: allow det/float-format — human console dump; artifact bytes go through to_json *)
                  Format.fprintf fmt "%-45s   le %g: %d@." "" buckets.(i) c
                else Format.fprintf fmt "%-45s   overflow: %d@." "" c)
            counts
      | Ratio { successes; trials; estimate; half_width; _ } ->
          (* bcc-lint: allow det/float-format — human console dump; artifact bytes go through to_json *)
          Format.fprintf fmt "%-45s ratio      %d/%d = %.4f +/- %.4f@." s.name
            successes trials estimate half_width)
    samples
