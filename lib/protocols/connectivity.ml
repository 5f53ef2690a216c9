type config = { n : int; seed : int; copies : int; phases : int; msg_bits : int }

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let default_config ~n ~seed =
  { n; seed; copies = 3; phases = (2 * log2_ceil (max 2 n)) + 3; msg_bits = 16 }

let sketch_params cfg ~phase ~copy =
  { Agm_sketch.universe = cfg.n * cfg.n;
    seed = cfg.seed + (phase * 1009) + (copy * 131) }

let phase_bits cfg =
  (* All copies of one phase, concatenated (same bit size for every
     phase/copy pair: the universe is fixed). *)
  cfg.copies * Agm_sketch.bit_size (sketch_params cfg ~phase:0 ~copy:0)

let rounds_per_phase cfg = (phase_bits cfg + cfg.msg_bits - 1) / cfg.msg_bits

let rounds cfg = cfg.phases * rounds_per_phase cfg

let edge_id n u v = (min u v * n) + max u v

(* Sketches of processor [id]'s incidence vector for one phase. *)
let my_phase_bits cfg ~id ~input ~phase =
  let pieces =
    List.init cfg.copies (fun copy ->
        let s = Agm_sketch.create (sketch_params cfg ~phase ~copy) in
        Bitvec.iter_set (fun u -> if u <> id then Agm_sketch.add s (edge_id cfg.n id u)) input;
        Agm_sketch.to_bitvec s)
  in
  List.fold_left Bitvec.concat (Bitvec.create 0) pieces

(* The union-find of the public state. *)
let uf_find parent v =
  let rec go v = if parent.(v) = v then v else go parent.(v) in
  go v

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(min ra rb) <- max ra rb

(* One Boruvka step from everyone's phase sketches. *)
let merge_step cfg ~phase ~parent ~all_bits =
  let sz = Agm_sketch.bit_size (sketch_params cfg ~phase ~copy:0) in
  (* Decode per-processor, per-copy sketches. *)
  let sketches =
    Array.map
      (fun bits ->
        Array.init cfg.copies (fun copy ->
            Agm_sketch.of_bitvec (sketch_params cfg ~phase ~copy)
              (Bitvec.sub bits ~pos:(copy * sz) ~len:sz)))
      all_bits
  in
  (* Current components. *)
  let roots = Hashtbl.create 16 in
  for v = 0 to cfg.n - 1 do
    let r = uf_find parent v in
    let members = Option.value (Hashtbl.find_opt roots r) ~default:[] in
    Hashtbl.replace roots r (v :: members)
  done;
  (* For each component, try the copies in order until an edge is
     recovered; merges apply to the union-find shared by all. *)
  (* bcc-lint: allow det/hashtbl-order — roots are inserted by a deterministic vertex scan, so the merge schedule is reproducible for a fixed input *)
  Hashtbl.iter
    (fun _root members ->
      let copy = ref 0 in
      let merged = ref false in
      while (not !merged) && !copy < cfg.copies do
        let acc = Agm_sketch.create (sketch_params cfg ~phase ~copy:!copy) in
        List.iter (fun v -> Agm_sketch.xor_inplace acc sketches.(v).(!copy)) members;
        (match Agm_sketch.recover acc with
        | Some coord ->
            let u = coord / cfg.n and v = coord mod cfg.n in
            if u < cfg.n && v < cfg.n && u <> v then begin
              uf_union parent u v;
              merged := true
            end
        | None -> ());
        incr copy
      done)
    roots

let component_count parent =
  let n = Array.length parent in
  let distinct = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace distinct (uf_find parent v) ()
  done;
  Hashtbl.length distinct

let protocol cfg =
  if cfg.msg_bits < 1 || cfg.msg_bits > 30 then
    invalid_arg "Connectivity: msg_bits in [1,30]";
  let per_phase = rounds_per_phase cfg in
  let pbits = phase_bits cfg in
  {
    Bcast.name = Printf.sprintf "connectivity-agm(n=%d)" cfg.n;
    msg_bits = cfg.msg_bits;
    rounds = rounds cfg;
    start =
      (fun ~n ->
        if n <> cfg.n then invalid_arg "Connectivity: processor count mismatch";
        (* Public state: every sender's phase buffer and the union-find,
           stepped once per round and read by every processor. *)
        let parent = Array.init cfg.n (fun v -> v) in
        let buffers = Array.init cfg.n (fun _ -> Bitvec.create pbits) in
        {
          Bcast.spawn =
            (fun ~id ~input ~rand:_ ->
              let mine = ref (Bitvec.create 0) in
              {
                Bcast.send =
                  (fun ~round ->
                    let phase = round / per_phase and chunk = round mod per_phase in
                    if chunk = 0 then mine := my_phase_bits cfg ~id ~input ~phase;
                    let v = ref 0 in
                    for b = 0 to cfg.msg_bits - 1 do
                      let pos = (chunk * cfg.msg_bits) + b in
                      if pos < pbits && Bitvec.get !mine pos then v := !v lor (1 lsl b)
                    done;
                    !v);
                receive = (fun ~round:_ _ -> ());
                finish = (fun () -> component_count parent);
              });
          public =
            (fun ~round messages ->
              let phase = round / per_phase and chunk = round mod per_phase in
              Array.iteri
                (fun sender msg ->
                  for b = 0 to cfg.msg_bits - 1 do
                    let pos = (chunk * cfg.msg_bits) + b in
                    if pos < pbits then
                      Bitvec.set buffers.(sender) pos ((msg lsr b) land 1 = 1)
                  done)
                messages;
              if chunk = per_phase - 1 then
                merge_step cfg ~phase ~parent ~all_bits:buffers);
        });
  }

let exact_components graph =
  let n = Digraph.vertex_count graph in
  (* Symmetrize, then count BFS components. *)
  let undirected = Digraph.copy graph in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Digraph.has_edge graph i j then Digraph.add_edge undirected j i
    done
  done;
  let seen = Array.make n false in
  let components = ref 0 in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      incr components;
      let queue = Queue.create () in
      Queue.add v queue;
      seen.(v) <- true;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Digraph.iter_out undirected u (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
      done
    end
  done;
  !components

let run_on cfg graph g =
  let inputs = Array.init cfg.n (Digraph.out_row graph) in
  let result = Bcast.run (protocol cfg) ~inputs ~rand:g in
  result.Bcast.outputs.(0)
