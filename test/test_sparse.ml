(* Tests for the CSR sparse backend: structural invariants, stream
   identity with the dense samplers, dense-vs-sparse kernel equality
   (the n <= 512 oracle battery), functor-level recovery/distinguisher
   agreement, and pool-size independence. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

let with_domains domains f =
  let old = Par.domain_count () in
  Par.set_domain_count domains;
  Fun.protect ~finally:(fun () -> Par.set_domain_count old) f

(* The CSRs the library builds itself (the samplers' build and
   [Spgraph.bidirectional_core]) are certified: they skip the O(m)
   column scan.  This suite passes every one it makes back through the
   scanning constructor on the same arrays ([make_symmetric] for a
   flagged graph, else [make]), so a builder that writes a malformed
   row still fails here. *)
let rescanned (g : Bcc_kern.Spgraph.t) =
  let module S = Bcc_kern.Spgraph in
  let make = if g.S.symmetric then S.make_symmetric else S.make in
  ignore (make ~n:g.S.n ~row_ptr:g.S.row_ptr ~cols:g.S.cols);
  g

module Lib_sparse = Sparse

module Sparse = struct
  include Lib_sparse

  let sample_gnp ?stream_cap g ~n ~p =
    rescanned (sample_gnp ?stream_cap g ~n ~p)

  let sample_gnp_sharded g ~n ~p = rescanned (sample_gnp_sharded g ~n ~p)

  let sample_planted g ~n ~p ~k =
    let t, c = sample_planted g ~n ~p ~k in
    (rescanned t, c)

  let sample_planted_sharded g ~n ~p ~k =
    let t, c = sample_planted_sharded g ~n ~p ~k in
    (rescanned t, c)
end

let bidirectional_core t = rescanned (Bcc_kern.Spgraph.bidirectional_core t)

let spgraph_equal (a : Bcc_kern.Spgraph.t) (b : Bcc_kern.Spgraph.t) =
  a.Bcc_kern.Spgraph.n = b.Bcc_kern.Spgraph.n
  && a.Bcc_kern.Spgraph.row_ptr = b.Bcc_kern.Spgraph.row_ptr
  && Bcc_kern.Buf.int_to_array a.Bcc_kern.Spgraph.cols
     = Bcc_kern.Buf.int_to_array b.Bcc_kern.Spgraph.cols

let digraph_equal a b =
  let n = Digraph.vertex_count a in
  n = Digraph.vertex_count b
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if not (Bitvec.equal (Digraph.out_row a i) (Digraph.out_row b i)) then
           ok := false
       done;
       !ok
     end

(* ------------------------------------------------------- structure *)

(* Word-boundary sizes: CSR carries no packing, but the dense twin does,
   so the round-trip sweep crosses the Bitvec word seams. *)
let boundary_sizes = [ 1; 63; 64; 65; 127; 128 ]

let test_roundtrip_boundaries () =
  List.iter
    (fun n ->
      let g = Prng.create (1000 + n) in
      let dg = Gnp.sample_fast g ~n ~p:0.2 in
      let sg = Sparse.of_digraph dg in
      check_int (Printf.sprintf "n=%d vertex count" n) n
        (Sparse.vertex_count sg);
      check_int
        (Printf.sprintf "n=%d edge count" n)
        (Digraph.edge_count dg) (Sparse.edge_count sg);
      check_bool
        (Printf.sprintf "n=%d to_digraph inverts of_digraph" n)
        true
        (digraph_equal dg (Sparse.to_digraph sg)))
    boundary_sizes

let test_empty_and_full () =
  let empty = Sparse.of_digraph (Digraph.create 7) in
  check_int "empty edges" 0 (Sparse.edge_count empty);
  check_bool "no edge" false (Sparse.has_edge empty 0 1);
  (* Zero and one vertex: nothing to sample, on either sampler. *)
  List.iter
    (fun n ->
      check_int (Printf.sprintf "n=%d sample_gnp edges" n) 0
        (Sparse.edge_count (Sparse.sample_gnp (Prng.create 5) ~n ~p:0.5));
      check_int (Printf.sprintf "n=%d sample_gnp_sharded edges" n) 0
        (Sparse.edge_count
           (Sparse.sample_gnp_sharded (Prng.create 5) ~n ~p:0.5)))
    [ 0; 1 ];
  let g = Prng.create 5 in
  let full = Sparse.sample_gnp g ~n:9 ~p:1.0 in
  check_int "complete graph edges" (9 * 8) (Sparse.edge_count full);
  for i = 0 to 8 do
    check_int "degree n-1" 8 (Sparse.out_degree full i)
  done

(* Pair streams hold 4-byte columns, so the samplers reject n >= 2^31
   (the sharded ones n >= 2^30) before they draw or allocate: at
   n = 2^31 a single n-entry array would be 16 GB. *)
let test_vertex_bound () =
  let g = Prng.create 3 in
  let probe = Prng.bits64 (Prng.copy g) in
  let n31 = 1 lsl 31 and n30 = 1 lsl 30 in
  Alcotest.check_raises "sample_gnp"
    (Invalid_argument "Sparse.sample_gnp: n < 2^31") (fun () ->
      ignore (Sparse.sample_gnp g ~n:n31 ~p:0.0));
  Alcotest.check_raises "sample_planted"
    (Invalid_argument "Sparse.sample_planted: n < 2^31") (fun () ->
      ignore (Sparse.sample_planted g ~n:n31 ~p:0.0 ~k:0));
  Alcotest.check_raises "sample_gnp_sharded"
    (Invalid_argument "Sparse.sample_gnp_sharded: n < 2^30") (fun () ->
      ignore (Sparse.sample_gnp_sharded g ~n:n30 ~p:0.0));
  Alcotest.check_raises "sample_planted_sharded"
    (Invalid_argument "Sparse.sample_planted_sharded: n < 2^30") (fun () ->
      ignore (Sparse.sample_planted_sharded g ~n:n30 ~p:0.0 ~k:0));
  check_bool "generator not advanced" true (Prng.bits64 g = probe)

let test_accessors_vs_dense () =
  let n = 96 in
  let g = Prng.create 7 in
  let dg = Gnp.sample_fast g ~n ~p:0.1 in
  let sg = Sparse.of_digraph dg in
  for i = 0 to n - 1 do
    check_int "out_degree" (Digraph.out_degree dg i) (Sparse.out_degree sg i);
    for j = 0 to n - 1 do
      check_bool "has_edge" (Digraph.has_edge dg i j) (Sparse.has_edge sg i j)
    done;
    (* iter_out ascending, matching the dense row. *)
    let got = ref [] in
    Sparse.iter_out sg i (fun j -> got := j :: !got);
    let want = ref [] in
    Digraph.iter_out dg i (fun j -> want := j :: !want);
    check_ints "iter_out" (List.rev !want) (List.rev !got)
  done;
  for i = 0 to n - 1 do
    let j = (i * 37) mod n in
    check_int "common out neighbors"
      (Digraph.count_common_out_neighbors dg i j)
      (Sparse.count_common_out_neighbors sg i j)
  done

let test_degree_sums_vs_dense () =
  let dense_sums dg =
    Array.init (Digraph.vertex_count dg) (fun i ->
        Digraph.out_degree dg i + Digraph.in_degree dg i)
  in
  let dg = Gnp.sample_fast (Prng.create 8) ~n:128 ~p:0.07 in
  check_bool "degree_sums" true (dense_sums dg = Sparse.degree_sums (Sparse.of_digraph dg));
  (* The CSR sampler's own output, against the dense sampler's graph
     from the same seed. *)
  List.iter
    (fun (n, p) ->
      let dg = Gnp.sample_fast (Prng.create 9) ~n ~p in
      let sg = Sparse.sample_gnp (Prng.create 9) ~n ~p in
      check_bool
        (Printf.sprintf "sampled degree_sums n=%d p=%g" n p)
        true
        (dense_sums dg = Sparse.degree_sums sg))
    [ (128, 0.1); (256, 0.05); (512, 0.02) ]

(* [make]'s verdict: [None] when it accepts, else its message. *)
let make_verdict ~n ~row_ptr ~cols =
  match Bcc_kern.Spgraph.make ~n ~row_ptr ~cols with
  | _ -> None
  | exception Invalid_argument msg -> Some msg

let check_verdict = Alcotest.(check (option string))

(* One case per check of the validator, each asserting the message of
   the check it reaches. *)
let test_make_rejects_malformed () =
  let ints l = Bcc_kern.Buf.int_of_array (Array.of_list l) in
  let expect name msg ~n ~row_ptr ~cols =
    check_verdict name (Some ("Spgraph: " ^ msg))
      (make_verdict ~n ~row_ptr ~cols:(ints cols))
  in
  expect "negative n" "negative vertex count" ~n:(-1) ~row_ptr:[||] ~cols:[];
  expect "offset count" "row_ptr must have n + 1 offsets" ~n:2
    ~row_ptr:[| 0; 0 |] ~cols:[];
  expect "first offset" "row_ptr must start at 0" ~n:2 ~row_ptr:[| 1; 1; 1 |]
    ~cols:[ 1 ];
  expect "last offset" "row_ptr must end at the column count" ~n:2
    ~row_ptr:[| 0; 1; 0 |] ~cols:[ 1 ];
  expect "offsets not monotone" "row_ptr must be monotone" ~n:3
    ~row_ptr:[| 0; 2; 1; 2 |] ~cols:[ 1; 2 ];
  (* Row 0's offsets reach past the 4 columns: the monotonicity check
     must fire before any column of row 0 is read. *)
  expect "row past the columns" "row_ptr must be monotone" ~n:8
    ~row_ptr:[| 0; 5; 4; 4; 4; 4; 4; 4; 4 |] ~cols:[ 1; 2; 3; 4 ];
  expect "descending row" "row not strictly ascending" ~n:3
    ~row_ptr:[| 0; 2; 2; 2 |] ~cols:[ 2; 1 ];
  expect "duplicate column" "row not strictly ascending" ~n:3
    ~row_ptr:[| 0; 2; 2; 2 |] ~cols:[ 1; 1 ];
  expect "column out of range" "column out of range" ~n:2
    ~row_ptr:[| 0; 1; 1 |] ~cols:[ 5 ];
  expect "diagonal" "diagonal entry" ~n:2 ~row_ptr:[| 0; 1; 1 |] ~cols:[ 0 ]

(* [certified] skips the column scan but keeps the offset checks: every
   offset case of [test_make_rejects_malformed] raises the same message,
   while a malformed row is its callers' obligation and passes.  What it
   accepts comes back marked checked. *)
let test_certified_checks_offsets () =
  let ints l = Bcc_kern.Buf.int_of_array (Array.of_list l) in
  let verdict ~n ~row_ptr ~cols =
    match
      Bcc_kern.Spgraph.certified ~symmetric:true ~n ~row_ptr ~cols:(ints cols)
    with
    | t ->
        check_bool "accepted graphs are marked checked" true
          t.Bcc_kern.Spgraph.checked;
        None
    | exception Invalid_argument msg -> Some msg
  in
  let expect name msg ~n ~row_ptr ~cols =
    check_verdict name (Some ("Spgraph: " ^ msg)) (verdict ~n ~row_ptr ~cols)
  in
  expect "negative n" "negative vertex count" ~n:(-1) ~row_ptr:[||] ~cols:[];
  expect "offset count" "row_ptr must have n + 1 offsets" ~n:2
    ~row_ptr:[| 0; 0 |] ~cols:[];
  expect "first offset" "row_ptr must start at 0" ~n:2 ~row_ptr:[| 1; 1; 1 |]
    ~cols:[ 1 ];
  expect "last offset" "row_ptr must end at the column count" ~n:2
    ~row_ptr:[| 0; 1; 0 |] ~cols:[ 1 ];
  expect "offsets not monotone" "row_ptr must be monotone" ~n:3
    ~row_ptr:[| 0; 2; 1; 2 |] ~cols:[ 1; 2 ];
  expect "row past the columns" "row_ptr must be monotone" ~n:8
    ~row_ptr:[| 0; 5; 4; 4; 4; 4; 4; 4; 4 |] ~cols:[ 1; 2; 3; 4 ];
  check_verdict "a descending row is not scanned" None
    (verdict ~n:3 ~row_ptr:[| 0; 2; 2; 2 |] ~cols:[ 2; 1 ]);
  check_verdict "a valid CSR" None
    (verdict ~n:3 ~row_ptr:[| 0; 2; 3; 4 |] ~cols:[ 1; 2; 0; 0 ])

(* Every build strategy's certified output against the full scan: the
   direct scatter (below 2^20 pairs) and the bucketed sort (above), each
   from one segment ([sample_gnp], [sample_planted]) and from 64
   ([sample_gnp_sharded], [sample_planted_sharded]), with and without
   the planted splice, and the bidirectional core, at 1 and 4 domains.
   [make_symmetric] (or [make]) on the same arrays must accept each. *)
let test_builds_pass_full_scan () =
  let planted sample g ~n ~p = fst (sample g ~n ~p ~k:64) in
  let cases =
    [
      ("gnp", Lib_sparse.sample_gnp ?stream_cap:None);
      ("planted", planted Lib_sparse.sample_planted);
      ("sharded", Lib_sparse.sample_gnp_sharded);
      ("planted sharded", planted Lib_sparse.sample_planted_sharded);
    ]
  in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          List.iter
            (fun (n, p, bucketed) ->
              List.iter
                (fun (name, sample) ->
                  let label =
                    Printf.sprintf "%s n=%d p=%g at %d domains" name n p
                      domains
                  in
                  let g = sample (Prng.create (n + domains)) ~n ~p in
                  check_bool (label ^ ": on its side of the 2^20 switch")
                    bucketed
                    (Sparse.edge_count g / 2 >= 1 lsl 20);
                  check_bool (label ^ ": certified") true
                    g.Bcc_kern.Spgraph.checked;
                  check_verdict (label ^ ": full scan") None
                    (match rescanned g with
                    | _ -> None
                    | exception Invalid_argument msg -> Some msg);
                  check_verdict (label ^ ": full scan of its core") None
                    (match bidirectional_core g with
                    | _ -> None
                    | exception Invalid_argument msg -> Some msg))
                cases)
            [ (4096, 0.01, false); (16384, 0.01, true) ]))
    [ 1; 4 ]

(* The column scan runs on 256-row chunks in parallel.  On the 4096-row
   cycle (row i = {i - 1, i + 1} mod n, 16 chunks) with defects in two
   chunks, the lower row's message must win whichever defect kind sits
   lower, at any domain count. *)
let test_lowest_row_message_wins () =
  let n = 4096 in
  let row_ptr = Array.init (n + 1) (fun i -> 2 * i) in
  let cycle =
    Array.init (2 * n) (fun e ->
        let i = e / 2 in
        let a = (i + n - 1) mod n and b = (i + 1) mod n in
        if e mod 2 = 0 then min a b else max a b)
  in
  (* Each defect rewrites one entry of an interior row r = {r-1, r+1}. *)
  let diagonal r = (2 * r, r)
  and out_of_range r = ((2 * r) + 1, n + 3)
  and descending r = (2 * r, r + 1) in
  List.iter
    (fun (lo, lo_defect, hi, hi_defect, want) ->
      let cols = Array.copy cycle in
      List.iter (fun (e, v) -> cols.(e) <- v) [ lo_defect lo; hi_defect hi ];
      List.iter
        (fun domains ->
          check_verdict
            (Printf.sprintf "defects at rows %d and %d, %d domains" lo hi
               domains)
            (Some ("Spgraph: " ^ want))
            (with_domains domains (fun () ->
                 make_verdict ~n ~row_ptr:(Array.copy row_ptr)
                   ~cols:(Bcc_kern.Buf.int_of_array cols))))
        [ 1; 4 ])
    [
      (700, diagonal, 3000, out_of_range, "diagonal entry");
      (700, out_of_range, 3000, diagonal, "column out of range");
      (300, descending, 3900, diagonal, "row not strictly ascending");
      (* Adjacent chunks: rows 3071 and 3072 straddle a chunk seam. *)
      (3071, diagonal, 3072, descending, "diagonal entry");
    ];
  check_verdict "the cycle itself is valid" None
    (make_verdict ~n ~row_ptr ~cols:(Bcc_kern.Buf.int_of_array cycle))

(* The reference validator: the checks of [Spgraph.check_t] in order, as
   one sequential pass — offsets first, then rows ascending. *)
let reference_verdict ~n ~row_ptr ~cols =
  let bad msg = Some ("Spgraph: " ^ msg) in
  let m = Array.length cols in
  if n < 0 then bad "negative vertex count"
  else if Array.length row_ptr <> n + 1 then bad "row_ptr must have n + 1 offsets"
  else if row_ptr.(0) <> 0 then bad "row_ptr must start at 0"
  else if row_ptr.(n) <> m then bad "row_ptr must end at the column count"
  else if List.exists (fun i -> row_ptr.(i) > row_ptr.(i + 1)) (List.init n Fun.id)
  then bad "row_ptr must be monotone"
  else
    let rec row i =
      if i = n then None
      else
        let rec entry e prev =
          if e = row_ptr.(i + 1) then row (i + 1)
          else
            let j = cols.(e) in
            if j <= prev then bad "row not strictly ascending"
            else if j < 0 || j >= n then bad "column out of range"
            else if j = i then bad "diagonal entry"
            else entry (e + 1) j
        in
        entry row_ptr.(i) (-1)
    in
    row 0

(* Corrupting one offset or one column of a valid sampled CSR, in a way
   that breaks an invariant, is always rejected — with the reference
   validator's message.  An offset moves below its predecessor or above
   its successor (or off 0 / the column count at the ends); a column
   leaves [0, n), becomes its row's index, or stops ascending. *)
let prop_corruption_rejected =
  let gen =
    QCheck.Gen.(
      tup4 (int_range 1 1000) (int_range 2 1200) (int_range 0 5)
        (pair (int_range 0 1_000_000) (int_range 1 4)))
  in
  let print (seed, n, kind, (pick, d)) =
    Printf.sprintf "seed=%d n=%d kind=%d pick=%d d=%d" seed n kind pick d
  in
  QCheck.Test.make ~name:"one corrupted offset or column is rejected"
    ~count:150 (QCheck.make ~print gen)
    (fun (seed, n, kind, (pick, d)) ->
      let p = Float.min 0.5 (6.0 /. float_of_int n) in
      let g = Sparse.sample_gnp (Prng.create seed) ~n ~p in
      let row_ptr = Array.copy g.Bcc_kern.Spgraph.row_ptr in
      let cols = Bcc_kern.Buf.int_to_array g.Bcc_kern.Spgraph.cols in
      let m = Array.length cols in
      let row_of e =
        let i = ref 0 in
        while row_ptr.(!i + 1) <= e do incr i done;
        !i
      in
      (if kind < 2 || m = 0 then begin
         let i = pick mod (n + 1) in
         row_ptr.(i) <-
           (if kind mod 2 = 0 then
              (if i = n then m else row_ptr.(i + 1)) + d
            else (if i = 0 then 0 else row_ptr.(i - 1)) - d)
       end
       else begin
         let e = pick mod m in
         let i = row_of e in
         let first = e = row_ptr.(i) and last = e = row_ptr.(i + 1) - 1 in
         cols.(e) <-
           (match kind with
           | 2 -> if d mod 2 = 0 then n + d else -d
           | 3 -> i
           | _ ->
               if not first then cols.(e - 1) - (d - 1)
               else if not last then cols.(e + 1) + (d - 1)
               else n + d)
       end);
      let want = reference_verdict ~n ~row_ptr ~cols in
      want <> None
      && make_verdict ~n ~row_ptr ~cols:(Bcc_kern.Buf.int_of_array cols) = want)

(* ------------------------------------------------- stream identity *)

(* The tentpole pin: the CSR sampler consumes the PRNG identically to the
   dense one, so both sides of a shared seed are the same graph. *)
let test_sample_gnp_stream_identity () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n, p) ->
          let dense = Gnp.sample_fast (Prng.create seed) ~n ~p in
          let sparse = Sparse.sample_gnp (Prng.create seed) ~n ~p in
          check_bool
            (Printf.sprintf "seed %d n=%d p=%g" seed n p)
            true
            (spgraph_equal (Sparse.of_digraph dense) sparse))
        [
          (64, 0.5); (128, 0.1); (256, 0.02); (100, 0.0); (50, 1.0);
          (* ~1.26 x 10^6 pairs: above the 2^20-pair switch to the
             bucketed CSR build. *)
          (4096, 0.15);
          (256, 0.05); (512, 0.02);
        ])
    [ 1; 2; 42 ]

let test_sample_gnp_advances_prng_identically () =
  (* After sampling, both generators must sit at the same stream
     position: the next draw agrees. *)
  let gd = Prng.create 9 and gs = Prng.create 9 in
  ignore (Gnp.sample_fast gd ~n:128 ~p:0.07);
  ignore (Sparse.sample_gnp gs ~n:128 ~p:0.07);
  check_bool "next draw equal" true (Prng.float gd = Prng.float gs)

let test_sample_planted_matches_dense_order () =
  (* Planted.sample_planted at p = 1/2 is the dense special case; the
     sparse sampler must see the same clique subset for a shared seed. *)
  List.iter
    (fun seed ->
      let n = 96 and k = 24 in
      let _, dense_clique =
        Planted.sample_planted (Prng.create seed) ~n ~k
      in
      let sparse, sparse_clique =
        Sparse.sample_planted (Prng.create seed) ~n ~p:0.5 ~k
      in
      check_ints
        (Printf.sprintf "seed %d same clique" seed)
        (List.sort_uniq Int.compare dense_clique)
        (List.sort_uniq Int.compare sparse_clique);
      (* And the clique is actually in the sparse instance. *)
      let cs = Array.of_list (List.sort_uniq Int.compare sparse_clique) in
      Array.iter
        (fun u ->
          Array.iter
            (fun v ->
              if u <> v then
                check_bool "clique edge present" true (Sparse.has_edge sparse u v))
            cs)
        cs)
    [ 1; 2; 42 ]

(* ------------------------------------------------- batched sampler *)

(* The block-decode sampler must be bit-identical to the scalar decode
   of [Gnp.sample_fast], one [Prng.float] per skip: same graph AND same
   generator end state, for every seed.  [~stream_cap:1] forces the
   edge-stream buffer through its growth path (capacity 1 doubles ~17
   times at n = 256) — the regression pin for the capacity-handling bug
   class. *)
let test_sample_gnp_block_eq_scalar () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n, p) ->
          let gb = Prng.create seed and gs = Prng.create seed in
          let b = Sparse.sample_gnp gb ~n ~p in
          let s = Sparse.of_digraph (Gnp.sample_fast gs ~n ~p) in
          check_bool (Printf.sprintf "seed %d n=%d p=%g graph" seed n p) true
            (spgraph_equal b s);
          check_bool
            (Printf.sprintf "seed %d n=%d p=%g end state" seed n p)
            true
            (Prng.bits64 gb = Prng.bits64 gs))
        [ (64, 0.5); (256, 0.02); (1024, 0.003); (256, 0.0); (48, 1.0) ])
    [ 1; 2; 42 ]

let test_sample_gnp_growth_path () =
  List.iter
    (fun seed ->
      let gb = Prng.create seed and gs = Prng.create seed in
      let b = Sparse.sample_gnp ~stream_cap:1 gb ~n:256 ~p:0.05 in
      let s = Sparse.of_digraph (Gnp.sample_fast gs ~n:256 ~p:0.05) in
      check_bool (Printf.sprintf "seed %d grown graph" seed) true
        (spgraph_equal b s);
      check_bool (Printf.sprintf "seed %d grown end state" seed) true
        (Prng.bits64 gb = Prng.bits64 gs))
    [ 1; 2; 42 ]

(* The sharded sampler reads its own documented stream (split children,
   one per shard), so its pins are: byte-identity across pool sizes,
   parent-stream purity, and statistical sanity — not equality with the
   scalar decode. *)
let test_sharded_pool_independent () =
  List.iter
    (fun seed ->
      let sample () =
        Sparse.sample_gnp_sharded (Prng.create seed) ~n:2048 ~p:0.01
      in
      let a = with_domains 1 sample in
      let b = with_domains 4 sample in
      check_bool
        (Printf.sprintf "seed %d sharded bytes at 1 vs 4 domains" seed)
        true (spgraph_equal a b))
    [ 1; 2; 42 ]

let test_sharded_parent_untouched () =
  List.iter
    (fun (n, p) ->
      let g = Prng.create 23 in
      let probe = Prng.bits64 (Prng.copy g) in
      ignore (Sparse.sample_gnp_sharded g ~n ~p);
      check_bool
        (Printf.sprintf "n=%d p=%g parent stream position unchanged" n p)
        true
        (Prng.bits64 g = probe))
    [ (2048, 0.01); (64, 0.0); (64, 1.0) ]

let test_sharded_edge_count_sane () =
  let n = 4096 and p = 0.01 in
  let g = Sparse.sample_gnp_sharded (Prng.create 29) ~n ~p in
  let pairs = float_of_int n *. float_of_int (n - 1) /. 2.0 in
  let mean = pairs *. p in
  let sigma = Float.sqrt (pairs *. p *. (1.0 -. p)) in
  let m = float_of_int (Sparse.edge_count g / 2) in
  check_bool
    (Printf.sprintf "edges %.0f within 6 sigma of %.0f" m mean)
    true
    (Float.abs (m -. mean) <= 6.0 *. sigma);
  (* Degenerate densities take the deterministic paths. *)
  check_int "p=0 empty" 0
    (Sparse.edge_count (Sparse.sample_gnp_sharded (Prng.create 29) ~n:64 ~p:0.0));
  check_int "p=1 complete" (64 * 63)
    (Sparse.edge_count (Sparse.sample_gnp_sharded (Prng.create 29) ~n:64 ~p:1.0))

let test_sample_planted_sharded () =
  List.iter
    (fun seed ->
      let n = 2048 and k = 64 in
      let p = 1.0 /. Float.sqrt (float_of_int n) in
      let g = Prng.create seed in
      (* Draw order pin: the clique subset comes first, from the parent,
         exactly as [sample_planted] / [Planted.sample_planted] draw it;
         the sharded base sampler then leaves the parent alone. *)
      let want_clique = Prng.subset (Prng.copy g) ~n ~k in
      let after = Prng.copy g in
      ignore (Prng.subset after ~n ~k);
      let probe = Prng.bits64 after in
      let graph, clique = Sparse.sample_planted_sharded g ~n ~p ~k in
      check_ints
        (Printf.sprintf "seed %d clique subset" seed)
        want_clique
        (List.sort_uniq Int.compare clique);
      check_bool
        (Printf.sprintf "seed %d parent one subset past start" seed)
        true
        (Prng.bits64 g = probe);
      let cs = Array.of_list want_clique in
      Array.iter
        (fun u ->
          Array.iter
            (fun v ->
              if u <> v then
                check_bool "clique edge present" true (Sparse.has_edge graph u v))
            cs)
        cs)
    [ 1; 2; 42 ]

(* ------------------------------------------------- clique splice *)

(* The splice's oracle: the planted samplers' former second pass, which
   unioned the rows of a built CSR with the clique on [cs] (sorted,
   distinct) by sorted merge and rebuilt the whole CSR — existing edges
   inside the clique dedupe against the merge, exactly like the clique
   mask [Planted.sample_planted_at] ORs into each clique row. *)
let overlay_clique (t : Bcc_kern.Spgraph.t) cs =
  let module B = Bcc_kern.Buf in
  let n = t.Bcc_kern.Spgraph.n in
  let row_ptr = t.Bcc_kern.Spgraph.row_ptr and cols = t.Bcc_kern.Spgraph.cols in
  let in_c = Array.make n false in
  Array.iter (fun v -> in_c.(v) <- true) cs;
  (* Row i's entries, unioned with cs \ {i} when i is a clique vertex. *)
  let merged_row i emit =
    let a = ref row_ptr.(i) and ae = row_ptr.(i + 1) in
    let others = if in_c.(i) then List.filter (( <> ) i) (Array.to_list cs) else [] in
    List.iter
      (fun y ->
        while !a < ae && B.int_get cols !a < y do
          emit (B.int_get cols !a);
          incr a
        done;
        if !a < ae && B.int_get cols !a = y then incr a;
        emit y)
      others;
    while !a < ae do
      emit (B.int_get cols !a);
      incr a
    done
  in
  let row_ptr' = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let d = ref 0 in
    merged_row i (fun _ -> incr d);
    row_ptr'.(i + 1) <- row_ptr'.(i) + !d
  done;
  let cols' = B.int_create row_ptr'.(n) in
  let out = ref 0 in
  for i = 0 to n - 1 do
    merged_row i (fun j ->
        B.int_set cols' !out j;
        incr out)
  done;
  Bcc_kern.Spgraph.make ~n ~row_ptr:row_ptr' ~cols:cols'

(* Rows whose pair slots straddle two of the sharded sampler's 64 shards:
   the first row of every shard that starts partway into a row. *)
let straddled_rows n =
  let total = n * (n - 1) / 2 in
  let base = total / 64 and rem = total mod 64 in
  let start_of r = (r * (n - 1)) - (r * (r - 1) / 2) in
  List.filter_map
    (fun s ->
      let lo = (base * s) + min s rem in
      let r = ref 0 in
      while start_of (!r + 1) <= lo do incr r done;
      if start_of !r < lo then Some !r else None)
    (List.init 63 (fun s -> s + 1))

(* [sample_planted{,_sharded}] splice the clique into the pair stream and
   build once; overlaying it on [sample_gnp{,_sharded}]'s graph from the
   same generator must give the same CSR bytes, the same clique and the
   same next parent draw. *)
let check_splice_eq_overlay ~label planted base g ~n ~p ~k =
  let gs = Prng.copy g and go = Prng.copy g in
  let graph, clique = planted gs ~n ~p ~k in
  let c = Prng.subset go ~n ~k in
  let cs = Array.of_list (List.sort_uniq Int.compare c) in
  let want = overlay_clique (base go ~n ~p) cs in
  check_ints (label ^ " clique") c clique;
  check_bool (label ^ " CSR bytes") true (spgraph_equal want graph);
  check_bool (label ^ " next parent bits64") true (Prng.bits64 gs = Prng.bits64 go);
  cs

let test_splice_eq_overlay () =
  let gnp g ~n ~p = Sparse.sample_gnp g ~n ~p in
  let sharded g ~n ~p = Sparse.sample_gnp_sharded g ~n ~p in
  let both ~label g ~n ~p ~k =
    ignore
      (check_splice_eq_overlay ~label:(label ^ " planted") Sparse.sample_planted
         gnp g ~n ~p ~k);
    ignore
      (check_splice_eq_overlay ~label:(label ^ " sharded")
         Sparse.sample_planted_sharded sharded g ~n ~p ~k)
  in
  List.iter
    (fun seed ->
      let g = Prng.create seed in
      let label fmt = Printf.sprintf ("seed %d " ^^ fmt) seed in
      (* Small n: no clique, one vertex, every vertex; the empty and
         complete bases. *)
      List.iter
        (fun (n, p, k) -> both ~label:(label "n=%d p=%g k=%d" n p k) g ~n ~p ~k)
        [
          (64, 0.1, 0); (64, 0.1, 1); (64, 0.1, 64); (64, 0.0, 12);
          (64, 1.0, 12); (1, 0.5, 1); (2, 0.5, 2); (0, 0.5, 0);
        ];
      (* Above the 2^20-pair switch: ~1.26 x 10^6 and ~1.34 x 10^6 pairs. *)
      ignore
        (check_splice_eq_overlay ~label:(label "n=4096 p=0.15 k=64")
           Sparse.sample_planted gnp g ~n:4096 ~p:0.15 ~k:64);
      ignore
        (check_splice_eq_overlay ~label:(label "n=16384 p=0.01 k=64")
           Sparse.sample_planted_sharded sharded g ~n:16384 ~p:0.01 ~k:64);
      (* Clique rows straddling two shards, on both sides of the switch.
         At n = 16384, k = 1024 cuts the 64 shards into 1024 one-row
         clique segments and the runs between them, so the bucketed
         build's work units (runs of segments holding 2^18 pairs) start
         and end among clique segments. *)
      List.iter
        (fun (n, p, k) ->
          let cs =
            check_splice_eq_overlay
              ~label:(label "straddle n=%d p=%g k=%d" n p k)
              Sparse.sample_planted_sharded sharded g ~n ~p ~k
          in
          let straddled = straddled_rows n in
          check_bool
            (label "n=%d k=%d clique holds a straddled row" n k)
            true
            (Array.exists (fun v -> List.mem v straddled) cs))
        [ (2048, 0.02, 256); (4096, 0.13, 512); (16384, 0.015, 1024) ])
    [ 1; 2; 42 ];
  (* Cliques holding vertex 0 and vertex n - 1: the first seed whose
     subset contains both. *)
  let n = 64 and k = 16 in
  let rec find seed =
    let c = Prng.subset (Prng.create seed) ~n ~k in
    if List.mem 0 c && List.mem (n - 1) c then seed else find (seed + 1)
  in
  List.iter
    (fun p ->
      both
        ~label:(Printf.sprintf "ends n=%d p=%g" n p)
        (Prng.create (find 1)) ~n ~p ~k)
    [ 0.0; 0.1; 1.0 ];
  (* Sharded at n = 512 too (64 shards), with a clique holding both
     ends, so the last row — in no shard — takes a clique segment. *)
  let n = 512 and k = 128 in
  let rec find seed =
    let c = Prng.subset (Prng.create seed) ~n ~k in
    if List.mem 0 c && List.mem (n - 1) c then seed else find (seed + 1)
  in
  ignore
    (check_splice_eq_overlay ~label:"ends n=512 sharded"
       Sparse.sample_planted_sharded sharded (Prng.create (find 1)) ~n ~p:0.05 ~k)

(* The bucketed build, the check and [degree_sums] run on the pool above
   the 2^20-pair switch; their bytes must not depend on its size. *)
let test_planted_pool_independent () =
  let reference_degree_sums (t : Bcc_kern.Spgraph.t) =
    let n = t.Bcc_kern.Spgraph.n in
    let sums = Array.init n (Sparse.out_degree t) in
    for i = 0 to n - 1 do
      Sparse.iter_out t i (fun j -> sums.(j) <- sums.(j) + 1)
    done;
    sums
  in
  List.iter
    (fun (label, sample) ->
      List.iter
        (fun seed ->
          let run () =
            let g, _ = sample (Prng.create seed) in
            (g, Sparse.degree_sums g)
          in
          let a, da = with_domains 1 run in
          let b, db = with_domains 4 run in
          let label = Printf.sprintf "%s seed %d" label seed in
          check_bool (label ^ " bytes at 1 vs 4 domains") true (spgraph_equal a b);
          check_bool (label ^ " degree_sums at 1 vs 4 domains") true (da = db);
          check_bool (label ^ " degree_sums = reference") true
            (da = reference_degree_sums a))
        [ 1; 42 ])
    [
      ( "sample_planted_sharded n=16384 p=0.01 k=64",
        fun g -> Sparse.sample_planted_sharded g ~n:16384 ~p:0.01 ~k:64 );
      ( "sample_planted n=4096 p=0.15 k=64",
        fun g -> Sparse.sample_planted g ~n:4096 ~p:0.15 ~k:64 );
    ]

(* ------------------------------------------------- golden digests *)

(* Cross-commit pins for every sampler entry point: the [Digest] hex of
   the CSR bytes ([row_ptr], then the [row_ptr.(n)] live columns, each
   as a 64-bit little-endian word) and the caller's generator's next
   [bits64] after the call.  A change to the CSR build, a decode or a
   draw order fails here even when both sides of every in-run oracle
   move together.  The second size of each sampler has more than 2^20
   pairs, so both sides of the direct/bucketed build switch are
   pinned. *)
let csr_digest (t : Bcc_kern.Spgraph.t) =
  let live = t.Bcc_kern.Spgraph.row_ptr.(t.Bcc_kern.Spgraph.n) in
  let b = Buffer.create (8 * (t.Bcc_kern.Spgraph.n + 1 + live)) in
  Array.iter
    (fun x -> Buffer.add_int64_le b (Int64.of_int x))
    t.Bcc_kern.Spgraph.row_ptr;
  for e = 0 to live - 1 do
    Buffer.add_int64_le b
      (Int64.of_int (Bcc_kern.Buf.int_get t.Bcc_kern.Spgraph.cols e))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_sample name g ~n ~p =
  match name with
  | "sample_gnp" -> Sparse.sample_gnp g ~n ~p
  | "sample_planted" -> fst (Sparse.sample_planted g ~n ~p ~k:64)
  | "sample_gnp_sharded" -> Sparse.sample_gnp_sharded g ~n ~p
  | "sample_planted_sharded" ->
      fst (Sparse.sample_planted_sharded g ~n ~p ~k:64)
  | _ -> invalid_arg name

(* (sampler, n, p, seed, CSR digest, next bits64 as %016Lx); the planted
   samplers use k = 64. *)
let golden_csr =
  [
    ("sample_gnp", 2048, 0.02, 1,
     "10f1238e4ba6e895b373af25e6f6fb42", "91dc7d640400c085");
    ("sample_gnp", 2048, 0.02, 42,
     "d6fdb1cd9b9304a592c666fc4eead5db", "d49a1341c307bcee");
    ("sample_gnp", 4096, 0.15, 1,
     "dbd4726102196c9869f7480b2e3f6d10", "02e814beb97f38b4");
    ("sample_gnp", 4096, 0.15, 42,
     "903c7608bebb93519b3a9b67a3964f64", "b24c1ba963a85326");
    ("sample_planted", 4096, 0.15, 1,
     "238a127cae9ec95ed4b7997a5936e2c6", "5c4fad6058bef368");
    ("sample_planted", 4096, 0.15, 42,
     "4776b5f59f6fb0b8d50de53d1493c177", "7c2880c246c1518e");
    ("sample_gnp_sharded", 2048, 0.01, 1,
     "61735327f99d1b243984f24e9d3cf1fc", "cfc5d07f6f03c29b");
    ("sample_gnp_sharded", 2048, 0.01, 42,
     "14828cc160cae529155f1f5862689e03", "d0764d4f4476689f");
    ("sample_gnp_sharded", 16384, 0.01, 1,
     "fc6357f862835f4702f153aa661363af", "cfc5d07f6f03c29b");
    ("sample_gnp_sharded", 16384, 0.01, 42,
     "24a41c33f10347e15b3ffc7a6a0519cf", "d0764d4f4476689f");
    ("sample_planted_sharded", 16384, 0.01, 1,
     "75bf001541d2ee1c398934d154306dc2", "b8417304fbde6f9e");
    ("sample_planted_sharded", 16384, 0.01, 42,
     "4c85308ca2e718f1c36c308a8e14e86d", "f6a0ce4c583f417f");
  ]

let test_golden_csr_digests () =
  let row (name, n, p, seed, digest, next) =
    (Printf.sprintf "%s n=%d p=%g seed=%d" name n p seed, digest, next)
  in
  let fresh (name, n, p, seed, _, _) =
    let g = Prng.create seed in
    let t = golden_sample name g ~n ~p in
    row (name, n, p, seed, csr_digest t, Printf.sprintf "%016Lx" (Prng.bits64 g))
  in
  Alcotest.(check (list (triple string string string)))
    "digest and next draw per sampler call"
    (List.map row golden_csr)
    (List.map fresh golden_csr)

(* Backward entries in the largest bucket the bucketed build forms for
   [t]: the builder's layout rule (the narrowest power-of-two row range
   that keeps the bucket count within min 1024 (m / 2^18)) applied to
   each row's count of smaller neighbours. *)
let largest_bucket (t : Bcc_kern.Spgraph.t) =
  let n = t.Bcc_kern.Spgraph.n and m = Sparse.edge_count t / 2 in
  let target = max 1 (min 1024 (m / (1 lsl 18))) in
  let shift = ref 0 in
  while ((n - 1) lsr !shift) + 1 > target do incr shift done;
  let sizes = Array.make (((n - 1) lsr !shift) + 1) 0 in
  for j = 0 to n - 1 do
    let b = j lsr !shift in
    Sparse.iter_out t j (fun i -> if i < j then sizes.(b) <- sizes.(b) + 1)
  done;
  Array.fold_left max 0 sizes

(* The bucket pass copies each bucket into per-lane scratch that lives
   across builds.  Grow it on a larger instance first, then build the
   golden n = 16384 planted instances over the stale entries: their
   digests must not move, at either pool size. *)
let test_scratch_reuse_golden () =
  let golden seed =
    List.find
      (fun (name, n, p, s, _, _) ->
        name = "sample_planted_sharded" && n = 16384 && p = 0.01 && s = seed)
      golden_csr
  in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let big, _ =
            Sparse.sample_planted_sharded (Prng.create 1) ~n:16384 ~p:0.015
              ~k:64
          in
          List.iter
            (fun seed ->
              let name, n, p, _, digest, next = golden seed in
              let g = Prng.create seed in
              let t = golden_sample name g ~n ~p in
              let label =
                Printf.sprintf "%d domains, seed %d after a larger build"
                  domains seed
              in
              check_bool (label ^ ": larger bucket first") true
                (largest_bucket big > largest_bucket t);
              Alcotest.(check string) (label ^ ": CSR digest") digest
                (csr_digest t);
              Alcotest.(check string) (label ^ ": next bits64") next
                (Printf.sprintf "%016Lx" (Prng.bits64 g)))
            [ 1; 42 ]))
    [ 1; 4 ]

(* ------------------------------------------------- kernel equality *)

(* The n <= 512 oracle battery: every sparse kernel against its dense
   twin on the same sampled graph. *)
let test_kernels_vs_dense () =
  List.iter
    (fun (n, p, seed) ->
      let dg = Gnp.sample_fast (Prng.create seed) ~n ~p in
      let sg = Sparse.of_digraph dg in
      let dcore = Digraph.bidirectional_core dg in
      let score = bidirectional_core sg in
      (* The core itself must match entry for entry. *)
      let label = Printf.sprintf "n=%d p=%g seed=%d" n p seed in
      Array.iteri
        (fun i row ->
          check_int
            (Printf.sprintf "%s core degree %d" label i)
            (Bitvec.popcount row)
            (Bcc_kern.Spgraph.degree score i);
          Bcc_kern.Spgraph.iter_row score i (fun j ->
              check_bool
                (Printf.sprintf "%s core edge (%d,%d)" label i j)
                true (Bitvec.get row j)))
        dcore;
      check_int
        (Printf.sprintf "%s triangles" label)
        (Bcc_kern.Graph.count_triangles dcore)
        (Bcc_kern.Spgraph.count_triangles score);
      check_int
        (Printf.sprintf "%s k4" label)
        (Bcc_kern.Graph.count_k4 dcore)
        (Bcc_kern.Spgraph.count_k4 score))
    [ (64, 0.3, 1); (128, 0.15, 2); (256, 0.05, 3); (512, 0.02, 42); (128, 0.1, 5) ]

let test_core_on_asymmetric_input () =
  (* bidirectional_core's job is dropping one-way edges; the samplers
     only produce symmetric graphs, so build an asymmetric one by hand. *)
  let n = 200 in
  let g = Prng.create 17 in
  let dg = Digraph.create n in
  for _ = 1 to 2000 do
    let i = Prng.int g n and j = Prng.int g n in
    if i <> j then Digraph.add_edge dg i j
  done;
  let sg = Sparse.of_digraph dg in
  let dcore = Digraph.bidirectional_core dg in
  let score = bidirectional_core sg in
  Array.iteri
    (fun i row ->
      check_int (Printf.sprintf "asym core degree %d" i) (Bitvec.popcount row)
        (Bcc_kern.Spgraph.degree score i);
      Bcc_kern.Spgraph.iter_row score i (fun j ->
          check_bool "asym core edge" true (Bitvec.get row j)))
    dcore

(* ------------------------------------------------- functor parity *)

module Dense_recover = Clique.Recover (Graph_backend.Dense)
module Sparse_recover = Clique.Recover (Graph_backend.Sparse_backend)
module Dense_dist = Distinguishers.Generic (Graph_backend.Dense)
module Sparse_dist = Distinguishers.Generic (Graph_backend.Sparse_backend)

let test_recover_dense_eq_sparse () =
  List.iter
    (fun seed ->
      let n = 256 and k = 48 in
      let dg, _ = Planted.sample_planted (Prng.create seed) ~n ~k in
      let sg = Sparse.of_digraph dg in
      check_ints
        (Printf.sprintf "seed %d degree_recover" seed)
        (Dense_recover.degree_recover dg ~k)
        (Sparse_recover.degree_recover sg ~k);
      check_ints
        (Printf.sprintf "seed %d top_degree" seed)
        (Dense_recover.top_degree_vertices dg k)
        (Sparse_recover.top_degree_vertices sg k))
    [ 1; 2; 42 ]

let test_recover_dense_known_answer () =
  (* Recover(Dense) returns exactly the planted clique here, pinned as a
     literal so a change to the selection or the refinement shows. *)
  let n = 256 and k = 48 in
  let dg, clique = Planted.sample_planted (Prng.create 3) ~n ~k in
  let want =
    [ 5; 8; 9; 19; 24; 26; 28; 36; 41; 45; 46; 51; 54; 65; 66; 86; 91; 94;
      99; 104; 112; 113; 116; 117; 120; 153; 161; 167; 175; 176; 177; 187;
      188; 198; 200; 201; 202; 210; 211; 213; 223; 226; 231; 233; 241; 242;
      250; 252 ]
  in
  check_ints "planted clique" want (List.sort Int.compare clique);
  check_ints "degree_recover" want (Dense_recover.degree_recover dg ~k)

let test_generic_advantage_dense_eq_sparse () =
  let n = 128 and k = 32 and p = 0.5 in
  (* Dense twin of [Sparse.sample_planted]: same draw order (clique
     subset, then the geometric-skip stream), so a shared generator
     feeds both backends the same graphs. *)
  let dense_planted gt =
    let c = Prng.subset gt ~n ~k in
    let dg = Gnp.sample_fast gt ~n ~p in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            if i <> j then begin
              Digraph.add_edge dg i j;
              Digraph.add_edge dg j i
            end)
          c)
      c;
    dg
  in
  let stats_d =
    [
      Dense_dist.max_out_degree;
      Dense_dist.total_edges;
      Dense_dist.triangle_count;
      Dense_dist.common_neighbors ~pairs:4;
    ]
  in
  let stats_s =
    [
      Sparse_dist.max_out_degree;
      Sparse_dist.total_edges;
      Sparse_dist.triangle_count;
      Sparse_dist.common_neighbors ~pairs:4;
    ]
  in
  List.iter2
    (fun (d : Dense_dist.t) (s : Sparse_dist.t) ->
      let ad =
        Dense_dist.advantage d
          ~sample_rand:(fun gt -> Gnp.sample_fast gt ~n ~p)
          ~sample_planted:dense_planted ~calibration:12 ~trials:12
          (Prng.create 77)
      in
      let as_ =
        Sparse_dist.advantage s
          ~sample_rand:(fun gt -> Sparse.sample_gnp gt ~n ~p)
          ~sample_planted:(fun gt ->
            fst (Sparse.sample_planted gt ~n ~p ~k))
          ~calibration:12 ~trials:12 (Prng.create 77)
      in
      check_bool
        (Printf.sprintf "%s advantage dense = sparse" d.Dense_dist.name)
        true (ad = as_))
    stats_d stats_s

(* ------------------------------------------------- symmetric flag *)

(* Every sampler writes each pair both ways and flags its CSR
   [symmetric].  Degree recovery trusts the flag to skip the in-degree
   scan and the reverse-edge tests, so pin the flag and the promise
   behind it on both sides of the 2^20-pair build switch. *)
let reverses_present (t : Bcc_kern.Spgraph.t) =
  let missing = ref 0 in
  for i = 0 to t.Bcc_kern.Spgraph.n - 1 do
    Bcc_kern.Spgraph.iter_row t i (fun j ->
        if not (Bcc_kern.Spgraph.mem t j i) then incr missing)
  done;
  !missing = 0

let test_samplers_flag_symmetric () =
  List.iter
    (fun (name, n, p, above_switch) ->
      let t = golden_sample name (Prng.create 5) ~n ~p in
      let label = Printf.sprintf "%s n=%d p=%g" name n p in
      check_bool (label ^ " above the 2^20-pair switch") above_switch
        (Sparse.edge_count t / 2 >= 1 lsl 20);
      check_bool (label ^ " flagged") true t.Bcc_kern.Spgraph.symmetric;
      check_bool (label ^ " every reverse present") true (reverses_present t))
    [
      ("sample_gnp", 256, 0.1, false);
      ("sample_gnp", 4096, 0.15, true);
      ("sample_planted", 256, 0.1, false);
      ("sample_planted", 4096, 0.15, true);
      ("sample_gnp_sharded", 512, 0.05, false);
      ("sample_gnp_sharded", 16384, 0.01, true);
      ("sample_planted_sharded", 512, 0.05, false);
      ("sample_planted_sharded", 16384, 0.01, true);
    ];
  (* Only the samplers' builder sets the flag: the CSR of a symmetric
     digraph and a bidirectional core stay unflagged. *)
  let sg = Sparse.sample_gnp (Prng.create 5) ~n:256 ~p:0.1 in
  check_bool "of_digraph unflagged" false
    (Sparse.of_digraph (Sparse.to_digraph sg)).Bcc_kern.Spgraph.symmetric;
  check_bool "bidirectional_core unflagged" false
    (bidirectional_core sg).Bcc_kern.Spgraph.symmetric

(* A clique planted both ways over random one-way edges. *)
let one_way_planted ~n ~k seed =
  let g = Prng.create seed in
  let dg = Digraph.create n in
  for _ = 1 to 8 * n do
    let i = Prng.int g n and j = Prng.int g n in
    if i <> j then Digraph.add_edge dg i j
  done;
  let clique = Prng.subset g ~n ~k in
  List.iter
    (fun i -> List.iter (fun j -> if i <> j then Digraph.add_edge dg i j) clique)
    clique;
  (dg, List.sort Int.compare clique)

let mutual_row iter g u =
  let got = ref [] in
  iter g u (fun v -> got := v :: !got);
  List.rev !got

(* [of_digraph] of a digraph with one-way edges stays unflagged, so its
   degree sums and mutual neighbours take the general paths; they and
   every recovery step must still equal the dense backend's. *)
let test_one_way_unflagged () =
  List.iter
    (fun seed ->
      let n = 200 and k = 40 in
      let dg, clique = one_way_planted ~n ~k seed in
      let sg = Sparse.of_digraph dg in
      let label = Printf.sprintf "seed %d" seed in
      check_bool (label ^ " unflagged") false sg.Bcc_kern.Spgraph.symmetric;
      check_bool (label ^ " has one-way edges") true
        (Sparse.degree_sums sg
        <> Array.init n (fun i -> 2 * Sparse.out_degree sg i));
      check_bool (label ^ " degree_sums = dense") true
        (Graph_backend.Dense.degree_sums dg = Sparse.degree_sums sg);
      for u = 0 to n - 1 do
        check_ints
          (Printf.sprintf "%s iter_mutual %d" label u)
          (mutual_row Graph_backend.Dense.iter_mutual dg u)
          (mutual_row Graph_backend.Sparse_backend.iter_mutual sg u)
      done;
      check_ints (label ^ " top_degree")
        (Dense_recover.top_degree_vertices dg k)
        (Sparse_recover.top_degree_vertices sg k);
      let core = List.filteri (fun i _ -> i mod 2 = 0) clique in
      check_ints (label ^ " extend_by_majority")
        (Dense_recover.extend_by_majority dg ~core ~threshold:0.5)
        (Sparse_recover.extend_by_majority sg ~core ~threshold:0.5);
      check_ints (label ^ " degree_recover")
        (Dense_recover.degree_recover dg ~k)
        (Sparse_recover.degree_recover sg ~k))
    [ 1; 2; 3 ]

(* [top_degree_vertices] against the heapsort selection it replaced
   (test/oracle), for every k from 0 to n + 2, on both backends and on
   flagged and unflagged CSRs.  Each k is classed by the ties at its
   k-th place, and every class must occur: ties only below it, a tie
   run ending at it, and a tie across it (the heapsort fallback). *)
let test_top_degree_vs_heapsort () =
  let below = ref 0 and at = ref 0 and across = ref 0 in
  let classify ds k =
    let sd = Array.copy ds in
    Array.sort (fun a b -> Int.compare b a) sd;
    let n = Array.length sd in
    let tie i = i + 1 < n && sd.(i) = sd.(i + 1) in
    if k >= 1 && k < n then
      if tie (k - 1) then incr across
      else if k >= 2 && tie (k - 2) then incr at
      else if List.exists tie (List.init (n - k) (fun i -> k + i)) then
        incr below
  in
  let check_all label top ds =
    let n = Array.length ds in
    for k = 0 to n + 2 do
      classify ds k;
      check_ints
        (Printf.sprintf "%s k=%d" label k)
        (Oracle.top_degree_vertices ds k) (top k)
    done
  in
  let on_dense label dg =
    check_all ("dense " ^ label)
      (Dense_recover.top_degree_vertices dg)
      (Graph_backend.Dense.degree_sums dg)
  in
  let on_sparse label sg =
    check_all
      (Printf.sprintf "sparse %s (flagged %b)" label sg.Bcc_kern.Spgraph.symmetric)
      (Sparse_recover.top_degree_vertices sg)
      (Sparse.degree_sums sg)
  in
  List.iter
    (fun (n, p, seed) ->
      let label = Printf.sprintf "n=%d p=%g" n p in
      let sg = Sparse.sample_gnp (Prng.create seed) ~n ~p in
      let dg = Sparse.to_digraph sg in
      on_dense label dg;
      on_sparse label sg;
      on_sparse label (Sparse.of_digraph dg))
    [ (0, 0.5, 1); (6, 0.0, 1); (64, 0.1, 1); (200, 0.05, 2); (300, 0.2, 3) ];
  let dg, _ = one_way_planted ~n:200 ~k:40 4 in
  on_dense "one-way" dg;
  on_sparse "one-way" (Sparse.of_digraph dg);
  check_bool "ties below the k-th place" true (!below > 0);
  check_bool "a tie run ending at the k-th place" true (!at > 0);
  check_bool "ties across the k-th place" true (!across > 0)

(* ------------------------------------------------- pool independence *)

let test_kernels_pool_independent () =
  let sg = Sparse.sample_gnp (Prng.create 11) ~n:1024 ~p:0.02 in
  let run () =
    let core = bidirectional_core sg in
    ( Bcc_kern.Spgraph.count_triangles core,
      Bcc_kern.Spgraph.count_k4 core,
      Bcc_kern.Buf.int_to_array core.Bcc_kern.Spgraph.cols )
  in
  let t1, q1, c1 = with_domains 1 run in
  let t4, q4, c4 = with_domains 4 run in
  check_int "triangles at 1 vs 4 domains" t1 t4;
  check_int "k4 at 1 vs 4 domains" q1 q4;
  check_bool "core bytes at 1 vs 4 domains" true (c1 = c4)

let test_e30_artifact_pool_independent () =
  (* The e30 driver itself is seconds-scale; pin pool independence on a
     same-shape, smaller driver pass: sample + recover + one advantage. *)
  let run () =
    let n = 2048 in
    let p = 1.0 /. Float.sqrt (float_of_int n) in
    let graph, clique =
      Sparse.sample_planted (Prng.create 21) ~n ~p ~k:64
    in
    let rec_ = Sparse_recover.degree_recover graph ~k:64 in
    let adv =
      Sparse_dist.advantage Sparse_dist.max_out_degree
        ~sample_rand:(fun gt -> Sparse.sample_gnp gt ~n:512 ~p:0.05)
        ~sample_planted:(fun gt ->
          fst (Sparse.sample_planted gt ~n:512 ~p:0.05 ~k:48))
        ~calibration:8 ~trials:8 (Prng.create 22)
    in
    (List.sort_uniq Int.compare clique, rec_, adv)
  in
  let c1, r1, a1 = with_domains 1 run in
  let c4, r4, a4 = with_domains 4 run in
  check_ints "clique at 1 vs 4 domains" c1 c4;
  check_ints "recovery at 1 vs 4 domains" r1 r4;
  check_bool "advantage at 1 vs 4 domains" true (a1 = a4)

(* ------------------------------------------------------- digraph *)

let test_iter_out_matches_out_row () =
  let n = 130 in
  let dg = Gnp.sample_fast (Prng.create 13) ~n ~p:0.1 in
  for i = 0 to n - 1 do
    let got = ref [] in
    Digraph.iter_out dg i (fun j -> got := j :: !got);
    let want = ref [] in
    Bitvec.iter_set (fun j -> want := j :: !want) (Digraph.out_row dg i);
    check_ints (Printf.sprintf "row %d" i) (List.rev !want) (List.rev !got)
  done

let () =
  Alcotest.run "sparse"
    [
      ( "structure",
        [
          Alcotest.test_case "roundtrip at word boundaries" `Quick
            test_roundtrip_boundaries;
          Alcotest.test_case "empty and complete" `Quick test_empty_and_full;
          Alcotest.test_case "n bound checked first" `Quick test_vertex_bound;
          Alcotest.test_case "accessors vs dense" `Quick test_accessors_vs_dense;
          Alcotest.test_case "degree sums vs dense" `Quick
            test_degree_sums_vs_dense;
          Alcotest.test_case "make rejects malformed" `Quick
            test_make_rejects_malformed;
          Alcotest.test_case "lowest failing row wins" `Quick
            test_lowest_row_message_wins;
          Alcotest.test_case "certified checks offsets only" `Quick
            test_certified_checks_offsets;
          Alcotest.test_case "certified builds pass the full scan" `Quick
            test_builds_pass_full_scan;
          QCheck_alcotest.to_alcotest prop_corruption_rejected;
        ] );
      ( "stream identity",
        [
          Alcotest.test_case "sample_gnp = dense sampler" `Quick
            test_sample_gnp_stream_identity;
          Alcotest.test_case "prng position preserved" `Quick
            test_sample_gnp_advances_prng_identically;
          Alcotest.test_case "sample_planted clique order" `Quick
            test_sample_planted_matches_dense_order;
        ] );
      ( "batched sampler",
        [
          Alcotest.test_case "block = scalar reference" `Quick
            test_sample_gnp_block_eq_scalar;
          Alcotest.test_case "growth path (stream_cap=1)" `Quick
            test_sample_gnp_growth_path;
          Alcotest.test_case "sharded bytes at 1 vs 4 domains" `Quick
            test_sharded_pool_independent;
          Alcotest.test_case "sharded parent untouched" `Quick
            test_sharded_parent_untouched;
          Alcotest.test_case "sharded edge count sane" `Quick
            test_sharded_edge_count_sane;
          Alcotest.test_case "sample_planted_sharded" `Quick
            test_sample_planted_sharded;
        ] );
      ( "clique splice",
        [
          Alcotest.test_case "splice = overlay oracle" `Quick
            test_splice_eq_overlay;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sampler CSR digests" `Quick
            test_golden_csr_digests;
          Alcotest.test_case "digests after a larger bucketed build" `Quick
            test_scratch_reuse_golden;
        ] );
      ( "kernel oracle",
        [
          Alcotest.test_case "kernels vs dense (n <= 512)" `Quick
            test_kernels_vs_dense;
          Alcotest.test_case "core on asymmetric input" `Quick
            test_core_on_asymmetric_input;
        ] );
      ( "functor parity",
        [
          Alcotest.test_case "recover dense = sparse" `Quick
            test_recover_dense_eq_sparse;
          Alcotest.test_case "Recover(Dense) known answer" `Quick
            test_recover_dense_known_answer;
          Alcotest.test_case "Generic advantage dense = sparse" `Quick
            test_generic_advantage_dense_eq_sparse;
        ] );
      ( "symmetric flag",
        [
          Alcotest.test_case "samplers flag symmetric CSRs" `Quick
            test_samplers_flag_symmetric;
          Alcotest.test_case "one-way digraph stays unflagged" `Quick
            test_one_way_unflagged;
          Alcotest.test_case "top_degree = heapsort oracle" `Quick
            test_top_degree_vs_heapsort;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "kernels at 1 vs 4 domains" `Quick
            test_kernels_pool_independent;
          Alcotest.test_case "pipeline at 1 vs 4 domains" `Quick
            test_e30_artifact_pool_independent;
          Alcotest.test_case "planted build above the switch at 1 vs 4 domains"
            `Quick test_planted_pool_independent;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "iter_out = out_row scan" `Quick
            test_iter_out_matches_out_row;
        ] );
    ]
