let sample_rand g n =
  let graph = Digraph.create n in
  for i = 0 to n - 1 do
    (* [Prng.bitvec] writes whole 64-bit draws into the packed words;
       installing (not copying) the fresh row keeps the per-row cost at
       one allocation.  Stream order and the sampled graph are exactly
       the set_out_row path's. *)
    Digraph.install_out_row graph i (Prng.bitvec g n)
  done;
  graph

let sample_planted_at g n c =
  let graph = sample_rand g n in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i <> j then begin
            Digraph.add_edge graph i j;
            Digraph.add_edge graph j i
          end)
        c)
    c;
  graph

let sample_planted g ~n ~k =
  let c = Prng.subset g ~n ~k in
  (sample_planted_at g n c, c)

type instance = Uniform of Digraph.t | Planted of Digraph.t * int list

let sample_instance g ~n ~k =
  if Prng.bool g then Uniform (sample_rand g n)
  else begin
    let graph, c = sample_planted g ~n ~k in
    Planted (graph, c)
  end

let is_planted = function Uniform _ -> false | Planted _ -> true

let interesting_k_range n =
  let log2n = int_of_float (Float.round (Float.log (float_of_int n) /. Float.log 2.0)) in
  let sqrtn = int_of_float (Float.sqrt (float_of_int n)) in
  (max 1 log2n, max 1 sqrtn)
