(* The benchmark's workloads.  Each is a closed loop driven by main.ml:
   one process, one generator, op [i] drawing from [Prng.split ops i],
   the next op starting when the previous one completes.  An op runs its
   layer calls (timed) and returns a check that main runs after the
   clock stops, so correctness checking never counts as op time.  No
   workload takes a warm-up op: each reports medians over its ops, and
   every sparse-large instance pays its own first-touch page faults, as
   a user's would.

   Span names follow [bench.<layer>.<call>], the layer being the lib/
   directory of the called function; the library's own kern:* and
   bcast:* spans nest beneath them in traced runs. *)

let foi = float_of_int

(* Per-op quantities the profiler cannot see, summed over traced ops
   only (they divide traced span times).  Only the calling domain
   updates them. *)
type tally = {
  mutable entries : float;  (** CSR entries of the sparse instances sampled *)
  mutable csr_bytes : float;  (** their computed size *)
  mutable instances : int;
  mutable rounds : float;
  mutable broadcast_bits : float;
  mutable random_bits : float;
  mutable successes : float;
}

let tally =
  {
    entries = 0.0;
    csr_bytes = 0.0;
    instances = 0;
    rounds = 0.0;
    broadcast_bits = 0.0;
    random_bits = 0.0;
    successes = 0.0;
  }

let add_tally ~traced f = if traced then f tally

let tally_instance (g : Sparse.t) =
  add_tally ~traced:(Prof.enabled ()) (fun t ->
      t.entries <- t.entries +. foi (Sparse.edge_count g);
      t.csr_bytes <-
        t.csr_bytes
        +. (8.0
           *. foi
                (Array.length g.Bcc_kern.Spgraph.row_ptr
                + Bcc_kern.Buf.int_length g.Bcc_kern.Spgraph.cols));
      t.instances <- t.instances + 1)

type t = {
  name : string;
  params : (string * Artifact.json) list;
  lanes : int;
      (** Par pool size, capped at nproc; with one lane the pool is never
          started and every Par combinator runs as a plain loop *)
  release : bool;  (** compact the heap after every op, outside the clock *)
  prepare : unit -> (string list, string) result;
      (** input set-up; [Error] refuses the run *)
  op : Prng.t -> int -> unit -> bool;
      (** [op g i] runs op [i] on [g] and returns its correctness check *)
}

(* ------------------------------------------------------ sparse-large *)

(* e31's pipeline at n = 2e5, p = n^{-1/2}, k = 16 n^{1/4}: sharded
   planted sampler, then Kucera's degree recovery, checked for exact
   recovery. *)
let sparse_large () =
  let module R = Clique.Recover (Graph_backend.Sparse_backend) in
  let n = 200_000 in
  let p = 1.0 /. Float.sqrt (foi n) in
  let k = int_of_float (Float.round (16.0 *. (foi n ** 0.25))) in
  let op g _ =
    let graph, clique =
      Probe.span "bench.graph.sample_planted_sharded" (fun () ->
          Sparse.sample_planted_sharded g ~n ~p ~k)
    in
    let recovered =
      Probe.span "bench.graph.degree_recover" (fun () -> R.degree_recover graph ~k)
    in
    tally_instance graph;
    let m = Sparse.edge_count graph in
    (* The check keeps the outputs, not the graph, so the instance is
       garbage once the op returns. *)
    fun () ->
      let expected_m = (foi n *. foi (n - 1) *. p) +. (foi k *. foi (k - 1) *. (1.0 -. p)) in
      let std_m = 2.0 *. Float.sqrt (Memplan.pairs_mean ~n ~p *. (1.0 -. p)) in
      Float.abs (foi m -. expected_m) < 5.0 *. std_m
      && List.equal Int.equal recovered (List.sort_uniq Int.compare clique)
  in
  (* bcc-lint: allow det/float-format — human console report, never part of the result line *)
  let mb bytes = Printf.sprintf "%.1f MB" (bytes /. 1e6) in
  let prepare () =
    let needed = Memplan.working_set_bytes ~n ~p ~k in
    let available_kb = Procfs.meminfo_kb "MemAvailable" in
    match Memplan.preflight ~needed ~available_kb with
    | Error msg -> Error (Printf.sprintf "sparse-large (n=%d, k=%d) %s" n k msg)
    | Ok () ->
        let csr = Memplan.csr_bytes ~n ~p ~k in
        let avail =
          match available_kb with Some kb -> mb (foi kb *. 1024.0) | None -> "unknown"
        in
        let llc =
          match Procfs.llc_bytes () with
          | Some b ->
              Printf.sprintf "LLC %s (%dx smaller)" (mb (foi b))
                (int_of_float (Float.round (csr /. foi b)))
          | None -> "LLC size unknown"
        in
        Ok
          [
            Printf.sprintf "preflight: working set ~%s estimated, MemAvailable %s"
              (mb needed) avail;
            Printf.sprintf "CSR %s computed vs %s" (mb csr) llc;
          ]
  in
  {
    name = "sparse-large";
    params = [ ("n", Int n); ("p", Float p); ("k", Int k) ];
    lanes = 2;
    release = true;
    prepare;
    op;
  }

(* ------------------------------------------------------ bcast-clique *)

(* e12's largest row: a dense planted instance, then Theorem B.1's
   protocol under the BCAST simulator; every processor must output the
   planted set. *)
let bcast_clique () =
  let n = 256 and k = 110 in
  let op g _ =
    let inputs, clique =
      Probe.span "bench.graph.dense_sample_planted" (fun () ->
          let graph, clique = Planted.sample_planted g ~n ~k in
          (Array.init n (Digraph.out_row graph), clique))
    in
    let proto = Planted_clique_algo.protocol ~n ~k in
    let result =
      Probe.span "bench.bcast.run" (fun () -> Bcast.run proto ~inputs ~rand:g)
    in
    let traced = Prof.enabled () in
    add_tally ~traced (fun t ->
        t.rounds <- t.rounds +. foi result.Bcast.rounds_used;
        t.broadcast_bits <- t.broadcast_bits +. foi result.Bcast.broadcast_bits;
        t.random_bits <-
          t.random_bits +. foi (Array.fold_left ( + ) 0 result.Bcast.random_bits));
    fun () ->
      let planted = List.sort_uniq Int.compare clique in
      let found =
        Array.for_all
          (function
            | Planted_clique_algo.Found c -> List.equal Int.equal c planted
            | Planted_clique_algo.Aborted_too_many_active
            | Planted_clique_algo.Aborted_small_clique ->
                false)
          result.Bcast.outputs
      in
      if found then add_tally ~traced (fun t -> t.successes <- t.successes +. 1.0);
      found
  in
  {
    name = "bcast-clique";
    params = [ ("n", Int n); ("k", Int k) ];
    lanes = 1;
    release = false;
    prepare = (fun () -> Ok []);
    op;
  }

let all = [ ("sparse-large", sparse_large); ("bcast-clique", bcast_clique) ]
