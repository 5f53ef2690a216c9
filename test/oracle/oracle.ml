(* Naive reference oracles for the Bcc_kern kernels: the pre-kernel
   implementations, kept verbatim as the specification each packed kernel
   is tested (test/test_kern.ml, test/test_graph_kern.ml) and benchmarked
   (bench/main.ml) against.  Nothing here is ever optimized. *)

let check_pow2 n =
  if n land (n - 1) <> 0 then invalid_arg "Oracle: length not a power of two"

(* SWAR popcount — the pre-table implementation, kept as the oracle and
   ablation baseline for the 16-bit-table popcount in Bitvec. *)
let popcount_swar w =
  let w =
    Int64.sub w (Int64.logand (Int64.shift_right_logical w 1) 0x5555555555555555L)
  in
  let w =
    Int64.add
      (Int64.logand w 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical w 2) 0x3333333333333333L)
  in
  let w =
    Int64.logand (Int64.add w (Int64.shift_right_logical w 4)) 0x0f0f0f0f0f0f0f0fL
  in
  Int64.to_int (Int64.shift_right_logical (Int64.mul w 0x0101010101010101L) 56)

(* Full Gauss-Jordan on Bitvec rows with per-bit pivot probing — the
   rank path Gf2_matrix used before the packed kernel. *)
let rank_rows rows_arr =
  let nrows = Array.length rows_arr in
  if nrows = 0 then 0
  else begin
    let ncols = Bitvec.length rows_arr.(0) in
    let work = Array.map Bitvec.copy rows_arr in
    let rank = ref 0 and col = ref 0 in
    while !rank < nrows && !col < ncols do
      let pivot = ref (-1) in
      (try
         for i = !rank to nrows - 1 do
           if Bitvec.get work.(i) !col then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = work.(!rank) in
        work.(!rank) <- work.(!pivot);
        work.(!pivot) <- tmp;
        for i = 0 to nrows - 1 do
          if i <> !rank && Bitvec.get work.(i) !col then
            Bitvec.xor_inplace work.(i) work.(!rank)
        done;
        incr rank
      end;
      incr col
    done;
    !rank
  end

(* Scalar elimination over a bool matrix — the fully naive rank. *)
let rank_bools m =
  let rows = Array.length m in
  if rows = 0 then 0
  else begin
    let cols = Array.length m.(0) in
    let work = Array.map Array.copy m in
    let rank = ref 0 and col = ref 0 in
    while !rank < rows && !col < cols do
      let pivot = ref (-1) in
      (try
         for i = !rank to rows - 1 do
           if work.(i).(!col) then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = work.(!rank) in
        work.(!rank) <- work.(!pivot);
        work.(!pivot) <- tmp;
        for i = 0 to rows - 1 do
          if i <> !rank && work.(i).(!col) then
            for j = 0 to cols - 1 do
              work.(i).(j) <- work.(i).(j) <> work.(!rank).(j)
            done
        done;
        incr rank
      end;
      incr col
    done;
    !rank
  end

(* Row-at-a-time product: for each row of [a], xor together the rows of
   [b] selected by its set bits — the pre-M4RM Gf2_matrix.mul. *)
let mul_rows a b ~cols =
  Array.map
    (fun ra ->
      let acc = Bitvec.create cols in
      Bitvec.iter_set (fun i -> Bitvec.xor_inplace acc b.(i)) ra;
      acc)
    a

let transpose_rows rows_arr ~cols =
  let nrows = Array.length rows_arr in
  Array.init cols (fun i -> Bitvec.init nrows (fun j -> Bitvec.get rows_arr.(j) i))

(* Direct O(4^n) transform: one O(2^n) sign-weighted sum per output. *)
let wht a =
  let n = Array.length a in
  check_pow2 n;
  Array.init n (fun s ->
      let acc = ref 0.0 in
      for x = 0 to n - 1 do
        if Bitvec.popcount_int (s land x) land 1 = 1 then acc := !acc -. a.(x)
        else acc := !acc +. a.(x)
      done;
      !acc)

(* The plain in-place doubling butterfly — the pre-kernel
   Fourier.wht_inplace. *)
let wht_butterfly a =
  let n = Array.length a in
  check_pow2 n;
  let h = ref 1 in
  while !h < n do
    let step = !h * 2 in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + !h - 1 do
        let x = a.(j) and y = a.(j + !h) in
        a.(j) <- x +. y;
        a.(j + !h) <- x -. y
      done;
      i := !i + step
    done;
    h := step
  done

let count_true ~n f =
  let acc = ref 0 in
  for x = 0 to (1 lsl n) - 1 do
    if f x then incr acc
  done;
  !acc

(* Per-input supercube walk, as Boolfun.bias_forced_ones enumerated it
   before the packed kernel. *)
let count_forced_ones ~n ~mask f =
  let free = lnot mask land ((1 lsl n) - 1) in
  let acc = ref 0 in
  let s = ref free and continue = ref true in
  while !continue do
    if f (mask lor !s) then incr acc;
    if !s = 0 then continue := false else s := (!s - 1) land free
  done;
  !acc

let count_flips ~n ~i f =
  let acc = ref 0 in
  for x = 0 to (1 lsl n) - 1 do
    if f x <> f (x lxor (1 lsl i)) then incr acc
  done;
  !acc

let count_above stats ~threshold =
  Array.fold_left (fun acc s -> if s > threshold then acc + 1 else acc) 0 stats

(* ----------------------- graph oracles (the pre-Graph implementations) *)

let popcount_and2 a b = Bitvec.popcount (Bitvec.logand a b)

let popcount_and3 a b c = Bitvec.popcount (Bitvec.logand (Bitvec.logand a b) c)

let popcount_and2_above a b ~above =
  let n = Bitvec.length a in
  Bitvec.popcount
    (Bitvec.logand (Bitvec.logand a b) (Bitvec.init n (fun u -> u > above)))

(* Per-bit core: row i bit j iff both directions present — the closure
   the pre-kernel bidirectional core (now Digraph.bidirectional_core)
   built per entry. *)
let bidirectional_core rows =
  let n = Array.length rows in
  Array.init n (fun i ->
      Bitvec.init n (fun j ->
          j <> i && Bitvec.get rows.(i) j && Bitvec.get rows.(j) i))

(* The allocating Bron-Kerbosch (fresh copy/logand/lognot vectors per
   node) — the pre-kernel Clique.max_clique_core, kept verbatim as the
   oracle for the scratch-stack version. *)
let max_clique adj vertices =
  let best = ref [] in
  let best_size = ref 0 in
  let rec expand r r_size p x =
    if Bitvec.is_zero p && Bitvec.is_zero x then begin
      if r_size > !best_size then begin
        best := r;
        best_size := r_size
      end
    end
    else begin
      let pivot = ref (-1) in
      let pivot_score = ref (-1) in
      let consider u =
        let score = Bitvec.popcount (Bitvec.logand p adj.(u)) in
        if score > !pivot_score then begin
          pivot := u;
          pivot_score := score
        end
      in
      Bitvec.iter_set consider p;
      Bitvec.iter_set consider x;
      let candidates =
        if !pivot >= 0 then Bitvec.logand p (Bitvec.lognot adj.(!pivot))
        else Bitvec.copy p
      in
      let p = Bitvec.copy p and x = Bitvec.copy x in
      Bitvec.iter_set
        (fun v ->
          expand (v :: r) (r_size + 1)
            (Bitvec.logand p adj.(v))
            (Bitvec.logand x adj.(v));
          Bitvec.set p v false;
          Bitvec.set x v true)
        candidates
    end
  in
  let n = Array.length adj in
  expand [] 0 vertices (Bitvec.create n);
  List.sort Int.compare !best

(* Pre-kernel triangle/K4 counters: fresh logand vectors plus a fresh
   [u > v] suffix mask per inner iteration. *)
let above n v = Bitvec.init n (fun u -> u > v)

let count_triangles core =
  let n = Array.length core in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let ni = core.(i) in
    Bitvec.iter_set
      (fun j ->
        if j > i then
          total :=
            !total
            + Bitvec.popcount
                (Bitvec.logand (Bitvec.logand ni core.(j)) (above n j)))
      ni
  done;
  !total

let count_k4 core =
  let n = Array.length core in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let ni = core.(i) in
    Bitvec.iter_set
      (fun j ->
        if j > i then begin
          let nij = Bitvec.logand ni core.(j) in
          Bitvec.iter_set
            (fun l ->
              if l > j then
                total :=
                  !total
                  + Bitvec.popcount
                      (Bitvec.logand (Bitvec.logand nij core.(l)) (above n l)))
            nij
        end)
      ni
  done;
  !total

(* The pre-histogram [Clique.Recover.top_degree_vertices], from the
   degree sums on: heapsort every (degree, vertex) pair by descending
   degree, keep the first k. *)
let top_degree_vertices ds k =
  let n = Array.length ds in
  let degs = Array.init n (fun i -> (ds.(i), i)) in
  Array.sort (fun (a, _) (b, _) -> Int.compare b a) degs;
  List.sort Int.compare (Array.to_list (Array.map snd (Array.sub degs 0 (min k n))))
