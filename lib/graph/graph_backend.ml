module type S = sig
  type t

  val vertex_count : t -> int
  val edge_count : t -> int
  val has_edge : t -> int -> int -> bool
  val out_degree : t -> int -> int
  val iter_mutual : t -> int -> (int -> unit) -> unit
  val count_common_out_neighbors : t -> int -> int -> int
  val degree_sums : t -> int array
  val count_triangles : t -> int
  val count_k4 : t -> int
end

module Dense = struct
  type t = Digraph.t

  let vertex_count = Digraph.vertex_count
  let edge_count = Digraph.edge_count
  let has_edge = Digraph.has_edge
  let out_degree = Digraph.out_degree
  let iter_mutual g u f =
    Digraph.iter_out g u (fun v -> if Digraph.has_edge g v u then f v)

  let count_common_out_neighbors = Digraph.count_common_out_neighbors

  let degree_sums g =
    Array.init (Digraph.vertex_count g) (fun i ->
        Digraph.out_degree g i + Digraph.in_degree g i)

  let count_triangles g =
    Bcc_kern.Graph.count_triangles (Digraph.bidirectional_core g)

  let count_k4 g = Bcc_kern.Graph.count_k4 (Digraph.bidirectional_core g)
end

module Sparse_backend = struct
  type t = Sparse.t

  let vertex_count = Sparse.vertex_count
  let edge_count = Sparse.edge_count
  let has_edge = Sparse.has_edge
  let out_degree = Sparse.out_degree
  let iter_mutual = Sparse.iter_mutual
  let count_common_out_neighbors = Sparse.count_common_out_neighbors
  let degree_sums = Sparse.degree_sums

  let count_triangles t =
    Bcc_kern.Spgraph.count_triangles (Bcc_kern.Spgraph.bidirectional_core t)

  let count_k4 t =
    Bcc_kern.Spgraph.count_k4 (Bcc_kern.Spgraph.bidirectional_core t)
end
