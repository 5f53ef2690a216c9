type t = { nrows : int; ncols : int; data : Bitvec.t array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Gf2_matrix.create";
  { nrows = rows; ncols = cols; data = Array.init rows (fun _ -> Bitvec.create cols) }

let init ~rows ~cols f =
  { nrows = rows; ncols = cols;
    data = Array.init rows (fun i -> Bitvec.init cols (fun j -> f i j)) }

let identity n = init ~rows:n ~cols:n (fun i j -> i = j)

let of_rows rows_arr =
  let nrows = Array.length rows_arr in
  if nrows = 0 then { nrows = 0; ncols = 0; data = [||] }
  else begin
    let ncols = Bitvec.length rows_arr.(0) in
    Array.iter
      (fun r ->
        if Bitvec.length r <> ncols then
          invalid_arg "Gf2_matrix.of_rows: ragged rows")
      rows_arr;
    { nrows; ncols; data = Array.map Bitvec.copy rows_arr }
  end

let random g ~rows ~cols =
  { nrows = rows; ncols = cols; data = Array.init rows (fun _ -> Prng.bitvec g cols) }

let rows m = m.nrows
let cols m = m.ncols

let get m i j = Bitvec.get m.data.(i) j
let set m i j b = Bitvec.set m.data.(i) j b
let row m i = Bitvec.copy m.data.(i)

let set_row m i r =
  if Bitvec.length r <> m.ncols then invalid_arg "Gf2_matrix.set_row: length mismatch";
  m.data.(i) <- Bitvec.copy r

let pack m = Bcc_kern.Gf2.pack ~cols:m.ncols m.data

let transpose m =
  let p = Bcc_kern.Gf2.transpose (pack m) in
  { nrows = m.ncols; ncols = m.nrows; data = Bcc_kern.Gf2.unpack p }

let add a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then
    invalid_arg "Gf2_matrix.add: dimension mismatch";
  { a with data = Array.init a.nrows (fun i -> Bitvec.xor a.data.(i) b.data.(i)) }

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols && Array.for_all2 Bitvec.equal a.data b.data

let vec_mul x m =
  if Bitvec.length x <> m.nrows then invalid_arg "Gf2_matrix.vec_mul: dimension mismatch";
  let acc = Bitvec.create m.ncols in
  Bitvec.iter_set (fun i -> Bitvec.xor_inplace acc m.data.(i)) x;
  acc

let mul_vec m x =
  if Bitvec.length x <> m.ncols then invalid_arg "Gf2_matrix.mul_vec: dimension mismatch";
  let r = Bitvec.create m.nrows in
  for i = 0 to m.nrows - 1 do
    if Bitvec.dot m.data.(i) x then Bitvec.set r i true
  done;
  r

(* Method-of-Four-Russians product on the packed words (Bcc_kern): one
   flat scratch buffer instead of a fresh Bitvec accumulation per row. *)
let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Gf2_matrix.mul: dimension mismatch";
  let p = Bcc_kern.Gf2.mul (pack a) (pack b) in
  { nrows = a.nrows; ncols = b.ncols; data = Bcc_kern.Gf2.unpack p }

(* Bounds-check-free column probe for the elimination inner loops: the
   caller guarantees [col < length row]. *)
let bit_at row col =
  Int64.logand
    (Int64.shift_right_logical (Bitvec.get_word row (col lsr 6)) (col land 63))
    1L
  = 1L

(* Gauss-Jordan elimination on a scratch copy; returns (reduced echelon
   rows, rank).  Kept on Bitvec rows because solve/kernel_vector/inverse
   need the reduced form; plain rank goes through the packed kernel. *)
let eliminate m =
  let work = Array.map Bitvec.copy m.data in
  let nrows = m.nrows and ncols = m.ncols in
  let rank = ref 0 in
  let col = ref 0 in
  while !rank < nrows && !col < ncols do
    (* Find a pivot row at or below [!rank] with a 1 in column [!col]. *)
    let pivot = ref (-1) in
    let i = ref !rank in
    while !pivot < 0 && !i < nrows do
      if bit_at work.(!i) !col then pivot := !i else incr i
    done;
    if !pivot >= 0 then begin
      let tmp = work.(!rank) in
      work.(!rank) <- work.(!pivot);
      work.(!pivot) <- tmp;
      for i = 0 to nrows - 1 do
        if i <> !rank && bit_at work.(i) !col then
          Bitvec.xor_inplace work.(i) work.(!rank)
      done;
      incr rank
    end;
    incr col
  done;
  (work, !rank)

(* Rank alone needs no reduced form: word-parallel forward elimination on
   one flat packed copy (Bcc_kern), not a per-row Bitvec scratch. *)
let rank m = Bcc_kern.Gf2.rank (pack m)

let is_full_rank m = rank m = min m.nrows m.ncols

let row_echelon m =
  let work, r = eliminate m in
  ({ m with data = work }, r)

let submatrix m ~row_lo ~row_hi ~col_lo ~col_hi =
  init ~rows:(row_hi - row_lo) ~cols:(col_hi - col_lo) (fun i j ->
      get m (row_lo + i) (col_lo + j))

let rank_of_top_left m k =
  if k > m.nrows || k > m.ncols then invalid_arg "Gf2_matrix.rank_of_top_left";
  rank (submatrix m ~row_lo:0 ~row_hi:k ~col_lo:0 ~col_hi:k)

(* Solve M x = b by eliminating the augmented matrix [M | b]. *)
let solve m b =
  if Bitvec.length b <> m.nrows then invalid_arg "Gf2_matrix.solve: dimension mismatch";
  let aug =
    init ~rows:m.nrows ~cols:(m.ncols + 1) (fun i j ->
        if j < m.ncols then get m i j else Bitvec.get b i)
  in
  let work, _ = eliminate aug in
  let x = Bitvec.create m.ncols in
  let consistent = ref true in
  for i = m.nrows - 1 downto 0 do
    let r = work.(i) in
    (* Leading 1 of the row, if any, among the first ncols columns; a
       single word scan instead of a per-bit probe. *)
    let lead = Bitvec.first_set r in
    if lead = -1 || lead >= m.ncols then begin
      (* Zero left-hand side: inconsistent iff the rhs bit is set. *)
      if lead = m.ncols then consistent := false
    end else begin
      (* Row is [x_lead + sum x_j = rhs]; free variables already fixed to 0. *)
      let rhs = ref (Bitvec.get r m.ncols) in
      for j = lead + 1 to m.ncols - 1 do
        if bit_at r j && bit_at x j then rhs := not !rhs
      done;
      Bitvec.set x lead !rhs
    end
  done;
  if !consistent then Some x else None

let kernel_vector m =
  let work, r = eliminate m in
  if r >= m.ncols then None
  else begin
    (* Identify pivot columns of the echelon form. *)
    let is_pivot = Array.make m.ncols false in
    for i = 0 to r - 1 do
      let lead = Bitvec.first_set work.(i) in
      if lead >= 0 then is_pivot.(lead) <- true
    done;
    (* Pick the first free column, set it to 1, back-substitute pivots. *)
    let free = ref (-1) in
    (try
       for j = 0 to m.ncols - 1 do
         if not is_pivot.(j) then begin
           free := j;
           raise Exit
         end
       done
     with Exit -> ());
    let x = Bitvec.create m.ncols in
    Bitvec.set x !free true;
    for i = r - 1 downto 0 do
      let lead = Bitvec.first_set work.(i) in
      if lead >= 0 then begin
        let v = ref false in
        for j = lead + 1 to m.ncols - 1 do
          if bit_at work.(i) j && bit_at x j then v := not !v
        done;
        Bitvec.set x lead !v
      end
    done;
    Some x
  end

let determinant m =
  if m.nrows <> m.ncols then invalid_arg "Gf2_matrix.determinant: not square";
  rank m = m.nrows

let inverse m =
  if m.nrows <> m.ncols then invalid_arg "Gf2_matrix.inverse: not square";
  let n = m.nrows in
  (* [M | I] always has row rank n, so singularity must be checked on the
     left block itself. *)
  if rank m < n then None
  else begin
    (* Gauss-Jordan on the augmented matrix [M | I]. *)
    let aug =
      init ~rows:n ~cols:(2 * n) (fun i j ->
          if j < n then get m i j else j - n = i)
    in
    let work, _ = eliminate aug in
    (* The echelon form of [M | I] with rank n has reduced left half a
       permutation of I; sort rows by leading column to read off M^-1. *)
    let rows_arr = Array.make n (Bitvec.create (2 * n)) in
    Array.iter
      (fun row ->
        let lead = Bitvec.first_set row in
        if lead >= 0 && lead < n then rows_arr.(lead) <- row)
      work;
    Some (init ~rows:n ~cols:n (fun i j -> Bitvec.get rows_arr.(i) (n + j)))
  end

let random_of_rank_at_most g ~n ~r =
  if r < 0 || r > n then invalid_arg "Gf2_matrix.random_of_rank_at_most";
  let l = random g ~rows:n ~cols:r in
  let right = random g ~rows:r ~cols:n in
  mul l right
