(* Bron-Kerbosch with pivoting on bitset neighborhoods, running on
   Bcc_kern.Graph's scratch stack (per-depth buffers, no allocation per
   node); same traversal and result as the allocating oracle version
   (test/oracle) it is property-tested against. *)
let max_clique_core adj vertices = Bcc_kern.Graph.max_clique adj vertices

let max_clique g =
  let adj = Digraph.bidirectional_core g in
  max_clique_core adj (Bitvec.ones (Digraph.vertex_count g))

let max_clique_of_subset g vs =
  let adj = Digraph.bidirectional_core g in
  let mask = Bitvec.create (Digraph.vertex_count g) in
  Bitvec.set_indices mask vs;
  (* Restrict neighborhoods to the subset so the search never leaves it. *)
  let adj = Array.map (fun row -> Bitvec.logand row mask) adj in
  max_clique_core adj mask

let greedy_clique g graph =
  let n = Digraph.vertex_count graph in
  let order = Prng.permutation g n in
  let chosen = ref [] in
  Array.iter
    (fun v ->
      let ok =
        List.for_all
          (fun u -> Digraph.has_edge graph u v && Digraph.has_edge graph v u)
          !chosen
      in
      if ok then chosen := v :: !chosen)
    order;
  List.sort Int.compare !chosen

(* The degree-based recovery pipeline, over either representation.
   [extend_by_majority]'s scan counts — one increment per core
   occurrence of [v] plus one per bidirectional (core, v) edge pair —
   equal the per-vertex fold [#{u in core : u = v or (v <-> u)}]. *)
module Recover (B : Graph_backend.S) = struct
  let extend_by_majority g ~core ~threshold =
    let n = B.vertex_count g in
    let core_size = List.length core in
    if core_size = 0 then []
    else begin
      let need = int_of_float (Float.ceil (threshold *. float_of_int core_size)) in
      let counts = Array.make n 0 in
      List.iter
        (fun u ->
          if u < 0 || u >= n then invalid_arg "Clique: core vertex out of range";
          (* The [u = v] membership term of the fold. *)
          counts.(u) <- counts.(u) + 1;
          (* The bidirectional-adjacency term.  Rows have no diagonal,
             so the two terms never double-count. *)
          B.iter_mutual g u (fun v -> counts.(v) <- counts.(v) + 1))
        core;
      let result = ref [] in
      for v = n - 1 downto 0 do
        if counts.(v) >= need then result := v :: !result
      done;
      !result
    end

  (* The k-th largest degree d comes from a degree histogram.  When
     exactly k vertices have degree >= d, they are the first k of any
     descending sort, and one scan returns them.  Only when ties at d
     straddle the k-th place does the order among equal degrees decide;
     then the heapsort that defines the selection runs ([Array.sort] of
     the (degree, vertex) array by descending degree, kept verbatim as
     test/oracle's [top_degree_vertices]), so the two paths agree on
     every input. *)
  let top_degree_vertices g k =
    let n = B.vertex_count g in
    let ds = B.degree_sums g in
    if k < 0 then invalid_arg "Clique.top_degree_vertices: negative k";
    let k = min k n in
    if k = 0 then []
    else begin
      let hist = Array.make (Array.fold_left max 0 ds + 1) 0 in
      Array.iter (fun d -> hist.(d) <- hist.(d) + 1) ds;
      (* Walk down from the largest degree until [at_least] =
         #{v : degree v >= d} reaches k. *)
      let d = ref (Array.length hist - 1) in
      let at_least = ref hist.(!d) in
      while !at_least < k do
        decr d;
        at_least := !at_least + hist.(!d)
      done;
      if !at_least = k then begin
        let top = ref [] in
        for v = n - 1 downto 0 do
          if ds.(v) >= !d then top := v :: !top
        done;
        !top
      end
      else begin
        let degs = Array.init n (fun i -> (ds.(i), i)) in
        Array.sort (fun (a, _) (b, _) -> Int.compare b a) degs;
        List.sort Int.compare (Array.to_list (Array.map snd (Array.sub degs 0 k)))
      end
    end

  let degree_recover g ~k =
    (* The refinement can oscillate on signal-free instances; cap the
       iteration count — convergence happens in a few steps when the
       clique is recoverable at all. *)
    let rec stabilize current budget =
      if budget = 0 then current
      else begin
        let next = extend_by_majority g ~core:current ~threshold:0.75 in
        if next = current || next = [] then next else stabilize next (budget - 1)
      end
    in
    stabilize (top_degree_vertices g k) 20
end

let log_clique_size_bound n =
  int_of_float (Float.ceil (2.0 *. Float.log (float_of_int (max 2 n)) /. Float.log 2.0))

(* Enumerate size-k cliques of the bidirectional core by depth-first
   extension in increasing vertex order; stop at the first hit.  Worst case
   C(n,k), i.e. n^{O(log n)} for k = O(log n) — the naive algorithm's
   complexity the paper quotes. *)
let find_clique_of_size adj n k =
  let rec extend chosen candidates need =
    if need = 0 then Some (List.rev chosen)
    else begin
      let rec try_from = function
        | [] -> None
        | v :: rest -> begin
            let candidates' = List.filter (fun u -> Bitvec.get adj.(v) u) rest in
            match extend (v :: chosen) candidates' (need - 1) with
            | Some c -> Some c
            | None -> try_from rest
          end
      in
      try_from candidates
    end
  in
  extend [] (List.init n (fun i -> i)) k

let quasi_poly_find g ~seed_size =
  let n = Digraph.vertex_count g in
  let adj = Digraph.bidirectional_core g in
  match find_clique_of_size adj n seed_size with
  | None -> []
  | Some seed ->
      (* Extend by majority adjacency to the seed, then stabilize. *)
      let module R = Recover (Graph_backend.Dense) in
      let candidate = R.extend_by_majority g ~core:seed ~threshold:0.9 in
      R.extend_by_majority g ~core:candidate ~threshold:0.9
