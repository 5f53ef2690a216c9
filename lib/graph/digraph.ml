type t = { n : int; adj : Bitvec.t array }

let create n =
  if n < 0 then invalid_arg "Digraph.create";
  { n; adj = Array.init n (fun _ -> Bitvec.create n) }

let vertex_count g = g.n

let check_vertex g i =
  if i < 0 || i >= g.n then invalid_arg "Digraph: vertex out of range"

let has_edge g i j =
  check_vertex g i;
  check_vertex g j;
  i <> j && Bitvec.get g.adj.(i) j

let add_edge g i j =
  check_vertex g i;
  check_vertex g j;
  if i <> j then Bitvec.set g.adj.(i) j true

(* bcc-lint: allow kern/unsafe-index — exported unsafe primitive: the .mli contract makes the caller guarantee i, j < n (Gnp's sampler loops run over 0..n-1) *)
let unsafe_add_edge g i j = Bitvec.unsafe_set_bit g.adj.(i) j

let remove_edge g i j =
  check_vertex g i;
  check_vertex g j;
  Bitvec.set g.adj.(i) j false

let of_matrix m =
  let n = Gf2_matrix.rows m in
  if Gf2_matrix.cols m <> n then invalid_arg "Digraph.of_matrix: not square";
  let g = create n in
  for i = 0 to n - 1 do
    let r = Gf2_matrix.row m i in
    Bitvec.set r i false;
    g.adj.(i) <- r
  done;
  g

let to_matrix g = Gf2_matrix.of_rows g.adj

let out_row g i =
  check_vertex g i;
  Bitvec.copy g.adj.(i)

let iter_out g i f =
  check_vertex g i;
  Bitvec.iter_set f g.adj.(i)

let set_out_row g i r =
  check_vertex g i;
  if Bitvec.length r <> g.n then invalid_arg "Digraph.set_out_row: length mismatch";
  let r = Bitvec.copy r in
  Bitvec.set r i false;
  g.adj.(i) <- r

let install_out_row g i r =
  check_vertex g i;
  if Bitvec.length r <> g.n then
    invalid_arg "Digraph.install_out_row: length mismatch";
  Bitvec.set r i false;
  g.adj.(i) <- r

let bidirectional_core g = Bcc_kern.Graph.bidirectional_core g.adj

let out_degree g i =
  check_vertex g i;
  Bitvec.popcount g.adj.(i)

let in_degree g j =
  check_vertex g j;
  let d = ref 0 in
  for i = 0 to g.n - 1 do
    if Bitvec.get g.adj.(i) j then incr d
  done;
  !d

let edge_count g = Array.fold_left (fun acc r -> acc + Bitvec.popcount r) 0 g.adj

let is_bidirectional_clique g vs =
  List.for_all
    (fun i -> List.for_all (fun j -> i = j || (has_edge g i j && has_edge g j i)) vs)
    vs

let common_out_neighbors g i j =
  check_vertex g i;
  check_vertex g j;
  Bitvec.logand g.adj.(i) g.adj.(j)

let count_common_out_neighbors g i j =
  check_vertex g i;
  check_vertex g j;
  Bitvec.popcount_and2 g.adj.(i) g.adj.(j)

let copy g = { g with adj = Array.map Bitvec.copy g.adj }

let equal a b = a.n = b.n && Array.for_all2 Bitvec.equal a.adj b.adj

let pp fmt g =
  for i = 0 to g.n - 1 do
    if i > 0 then Format.pp_print_newline fmt ();
    Bitvec.pp fmt g.adj.(i)
  done
