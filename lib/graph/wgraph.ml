type t = { n : int; w : float array array }

let random g n =
  let w = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = Prng.float g in
      w.(i).(j) <- v;
      w.(j).(i) <- v
    done
  done;
  { n; w }

let of_weights m =
  let n = Array.length m in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Wgraph.of_weights") m;
  let w = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      w.(i).(j) <- m.(i).(j);
      w.(j).(i) <- m.(i).(j)
    done
  done;
  { n; w }

(* Prim with O(n^2) dense scan — right for complete graphs. *)
let mst t =
  if t.n <= 1 then []
  else begin
    let in_tree = Array.make t.n false in
    let best_cost = Array.make t.n Float.infinity in
    let best_from = Array.make t.n (-1) in
    in_tree.(0) <- true;
    for v = 1 to t.n - 1 do
      best_cost.(v) <- t.w.(0).(v);
      best_from.(v) <- 0
    done;
    let edges = ref [] in
    for _ = 1 to t.n - 1 do
      (* Cheapest fringe vertex. *)
      let pick = ref (-1) in
      for v = 0 to t.n - 1 do
        if (not in_tree.(v)) && (!pick < 0 || best_cost.(v) < best_cost.(!pick)) then
          pick := v
      done;
      let v = !pick in
      in_tree.(v) <- true;
      edges := (min v best_from.(v), max v best_from.(v)) :: !edges;
      for u = 0 to t.n - 1 do
        if (not in_tree.(u)) && t.w.(v).(u) < best_cost.(u) then begin
          best_cost.(u) <- t.w.(v).(u);
          best_from.(u) <- v
        end
      done
    done;
    List.rev !edges
  end

let mst_weight t = List.fold_left (fun acc (i, j) -> acc +. t.w.(i).(j)) 0.0 (mst t)

let zeta3 = 1.2020569031595942854

let min_incident_weight t v =
  let best = ref Float.infinity in
  for u = 0 to t.n - 1 do
    if u <> v && t.w.(v).(u) < !best then best := t.w.(v).(u)
  done;
  !best

let boruvka_round_components t =
  if t.n <= 1 then t.n
  else begin
    (* Union-find over the "grab your cheapest edge" step. *)
    let parent = Array.init t.n (fun i -> i) in
    let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); find parent.(x)) in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then parent.(ra) <- rb
    in
    for v = 0 to t.n - 1 do
      let best = ref (-1) in
      for u = 0 to t.n - 1 do
        if u <> v && (!best < 0 || t.w.(v).(u) < t.w.(v).(!best)) then best := u
      done;
      union v !best
    done;
    let roots = Hashtbl.create 16 in
    for v = 0 to t.n - 1 do
      Hashtbl.replace roots (find v) ()
    done;
    Hashtbl.length roots
  end
