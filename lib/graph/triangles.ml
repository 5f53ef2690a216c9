let foi = float_of_int

let choose3 n = foi (n * (n - 1) * (n - 2)) /. 6.0

(* The bidirectional core of A_rand is G(n, 1/4). *)
let p_core = 0.25

let expected_random n = choose3 n *. (p_core ** 3.0)

let stddev_random n =
  let p3 = p_core ** 3.0 in
  let p5 = p_core ** 5.0 in
  let p6 = p_core ** 6.0 in
  (* Variance = sum over triangle pairs of covariances: identical pairs
     contribute p^3(1-p^3); pairs sharing one edge (3(n-3) partners per
     triangle) contribute p^5 - p^6; disjoint or vertex-sharing pairs are
     independent. *)
  let t = choose3 n in
  let var = (t *. p3 *. (1.0 -. p3)) +. (t *. 3.0 *. foi (n - 3) *. (p5 -. p6)) in
  Float.sqrt var

let planted_excess ~n ~k =
  if k < 2 then 0.0
  else begin
    let c3k = choose3 k in
    let c2k = foi (k * (k - 1)) /. 2.0 in
    (* All-in-clique triangles become certain; two-in-clique triangles get
       their clique edge forced (1/64 -> 1/16); one-in-clique triangles
       contain no clique edge. *)
    (c3k *. (1.0 -. (p_core ** 3.0)))
    +. (c2k *. foi (n - k) *. ((p_core ** 2.0) -. (p_core ** 3.0)))
  end

let zscore ~n ~k =
  let s = stddev_random n in
  if s = 0.0 then Float.infinity else planted_excess ~n ~k /. s
