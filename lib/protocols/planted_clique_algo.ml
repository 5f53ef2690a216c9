type outcome = Found of int list | Aborted_too_many_active | Aborted_small_clique

let log2f x = Float.log x /. Float.log 2.0

let activation_probability ~n ~k =
  if k <= 0 then invalid_arg "Planted_clique_algo: k must be positive";
  let l = log2f (float_of_int (max 2 n)) in
  Float.min 1.0 (l *. l /. float_of_int k)

let active_cap ~n ~k =
  let p = activation_probability ~n ~k in
  int_of_float (Float.ceil (2.0 *. p *. float_of_int n))

let round_budget ~n ~k = 2 + active_cap ~n ~k

let clique_size_threshold n =
  let l = log2f (float_of_int (max 2 n)) in
  0.5 *. l *. l

let expected_success_probability ~n ~k =
  let p = activation_probability ~n ~k in
  let nf = float_of_int n and kf = float_of_int k in
  let too_many = Stats.chernoff_upper ~mean:(p *. nf) ~delta:1.0 in
  let too_few_clique = Stats.chernoff_lower ~mean:(p *. kf) ~delta:0.5 in
  Float.max 0.0 (1.0 -. too_many -. too_few_clique)

(* The run's public state: everything here is a function of the
   transcript, stepped once per round by the simulator.  Processors read
   it and keep only their activation coin. *)
type public = {
  mutable actives : int array;  (** Active vertices, ascending; fixed after round 0. *)
  mutable aborted : bool;
  mutable rows : Bitvec.t array;
      (** Row [ai] has bit [r] iff the [ai]-th active vertex broadcast 1
          in edge round [r]: its adjacency to the [r]-th active vertex. *)
  mutable clique : int list option;
      (** [C_active], computed on first read; reads come after the last
          edge round. *)
  mutable claimed : int list;  (** Claims of every claim round, ascending. *)
}

(* The maximum clique of the directed subgraph induced on the active set,
   as vertex ids in ascending order. *)
let active_clique pub =
  match pub.clique with
  | Some c -> c
  | None ->
      let active_arr = pub.actives in
      let sub = Digraph.create (Array.length active_arr) in
      (* [install_out_row] clears each row's diagonal bit, and the rows
         are read nowhere else. *)
      Array.iteri (Digraph.install_out_row sub) pub.rows;
      let local = Clique.max_clique sub in
      let c = List.sort Int.compare (List.map (fun i -> active_arr.(i)) local) in
      pub.clique <- Some c;
      c

(* The senders that broadcast 1, ascending. *)
let ones messages =
  let acc = ref [] in
  for i = Array.length messages - 1 downto 0 do
    if messages.(i) = 1 then acc := i :: !acc
  done;
  !acc

let step ~cap pub ~round messages =
  if round = 0 then begin
    pub.actives <- Array.of_list (ones messages);
    let na = Array.length pub.actives in
    if na > cap then pub.aborted <- true
    else pub.rows <- Array.init na (fun _ -> Bitvec.create na)
  end
  else if pub.aborted then ()
  else if round <= cap then begin
    let r = round - 1 in
    if r < Array.length pub.actives then
      Array.iteri
        (fun ai v -> if messages.(v) = 1 then Bitvec.set pub.rows.(ai) r true)
        pub.actives
  end
  else pub.claimed <- List.merge Int.compare (ones messages) pub.claimed

let protocol ~n ~k =
  let p = activation_probability ~n ~k in
  let cap = active_cap ~n ~k in
  let rounds = round_budget ~n ~k in
  {
    Bcast.name = Printf.sprintf "planted-clique-B1(n=%d,k=%d)" n k;
    msg_bits = 1;
    rounds;
    start =
      (fun ~n:n' ->
        if n' <> n then invalid_arg "Planted_clique_algo: processor count mismatch";
        let pub =
          { actives = [||]; aborted = false; rows = [||]; clique = None; claimed = [] }
        in
        {
          Bcast.spawn =
            (fun ~id ~input ~rand ->
              let active = ref false in
              {
                Bcast.send =
                  (fun ~round ->
                    if round = 0 then begin
                      active := Bcast.Rand_counter.bernoulli rand p;
                      if !active then 1 else 0
                    end
                    else if pub.aborted then 0
                    else if round <= cap then begin
                      (* Edge round r = round - 1: adjacency to the r-th
                         active vertex (0 when out of range or inactive). *)
                      let r = round - 1 in
                      if (not !active) || r >= Array.length pub.actives then 0
                      else if Bitvec.get input pub.actives.(r) then 1
                      else 0
                    end
                    else begin
                      (* Membership claim round. *)
                      let c_active = active_clique pub in
                      let sz = List.length c_active in
                      if float_of_int sz < clique_size_threshold n then 0
                      else begin
                        let adjacent =
                          List.fold_left
                            (fun acc v ->
                              if v = id || Bitvec.get input v then acc + 1 else acc)
                            0 c_active
                        in
                        if float_of_int adjacent >= 0.9 *. float_of_int sz then 1 else 0
                      end
                    end);
                receive = (fun ~round:_ _ -> ());
                finish =
                  (fun () ->
                    if pub.aborted then Aborted_too_many_active
                    else if
                      float_of_int (List.length (active_clique pub))
                      < clique_size_threshold n
                    then Aborted_small_clique
                    else Found pub.claimed);
              });
          public = step ~cap pub;
        });
  }
