let hamiltonicity_threshold n =
  let nf = float_of_int (max 3 n) in
  (Float.log nf +. Float.log (Float.log nf)) /. nf

let sample_planted_cycle g ~n ~p =
  (* Geometric-skip sampler: O(pn^2 + n) draws instead of one Bernoulli per
     pair.  Different PRNG stream than [Gnp.sample] — e23 artifacts were
     re-pinned when this switched (see EXPERIMENTS.md). *)
  let graph = Gnp.sample_fast g ~n ~p in
  let cycle = Prng.permutation g n in
  for i = 0 to n - 1 do
    let a = cycle.(i) and b = cycle.((i + 1) mod n) in
    Digraph.add_edge graph a b;
    Digraph.add_edge graph b a
  done;
  (graph, cycle)

let is_hamiltonian_cycle graph perm =
  let n = Digraph.vertex_count graph in
  Array.length perm = n
  && (let seen = Array.make n false in
      Array.for_all
        (fun v -> v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
        perm)
  && (let ok = ref true in
      for i = 0 to n - 1 do
        let a = perm.(i) and b = perm.((i + 1) mod n) in
        if not (Digraph.has_edge graph a b && Digraph.has_edge graph b a) then ok := false
      done;
      !ok)

(* Angluin-Valiant rotation-extension on the bidirectional core. *)
let find_cycle g graph ~max_steps =
  let n = Digraph.vertex_count graph in
  if n = 0 then Some [||]
  else begin
    let adj = Digraph.bidirectional_core graph in
    let path = Array.make n (-1) in
    let pos = Array.make n (-1) in
    let len = ref 1 in
    let start = Prng.int g n in
    path.(0) <- start;
    pos.(start) <- 0;
    let steps = ref 0 in
    let result = ref None in
    while !result = None && !steps < max_steps do
      incr steps;
      let tail = path.(!len - 1) in
      let neighbors = Bitvec.indices_set adj.(tail) in
      if neighbors = [] then result := Some None (* dead end: fail *)
      else begin
        let u = List.nth neighbors (Prng.int g (List.length neighbors)) in
        if pos.(u) < 0 then begin
          (* Extend. *)
          path.(!len) <- u;
          pos.(u) <- !len;
          incr len
        end
        else if !len = n && u = path.(0) then begin
          (* Close the Hamilton cycle. *)
          result := Some (Some (Array.copy path))
        end
        else begin
          let i = pos.(u) in
          if i < !len - 1 then begin
            (* Rotate: reverse path[i+1 .. len-1]. *)
            let lo = ref (i + 1) and hi = ref (!len - 1) in
            while !lo < !hi do
              let a = path.(!lo) and b = path.(!hi) in
              path.(!lo) <- b;
              path.(!hi) <- a;
              pos.(b) <- !lo;
              pos.(a) <- !hi;
              incr lo;
              decr hi
            done
          end
        end
      end
    done;
    match !result with Some r -> r | None -> None
  end
