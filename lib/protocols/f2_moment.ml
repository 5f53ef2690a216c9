type config = { d : int; repetitions : int; seed : int }

let msg_width d =
  (* A local signed sum lies in [-d, d]; offset-encode into [0, 2d]. *)
  let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
  max 1 (width 0 (2 * d))

(* Public sign of item j in repetition r: +1 / -1 from the shared seed. *)
let sign cfg ~rep ~item =
  let g = Prng.split (Prng.create cfg.seed) ((rep * 1000003) + item) in
  if Prng.bool g then 1 else -1

let local_sum cfg ~rep ~input =
  let total = ref 0 in
  Bitvec.iter_set (fun j -> total := !total + sign cfg ~rep ~item:j) input;
  !total

let protocol cfg =
  if cfg.d < 1 then invalid_arg "F2_moment: universe must be nonempty";
  if cfg.repetitions < 1 then invalid_arg "F2_moment: need repetitions >= 1";
  let w = msg_width cfg.d in
  {
    Bcast.name = Printf.sprintf "f2-ams(d=%d,r=%d)" cfg.d cfg.repetitions;
    msg_bits = w;
    rounds = cfg.repetitions;
    start =
      Bcast.spawn_only (fun ~id:_ ~n:_ ~input ~rand:_ ->
        if Bitvec.length input <> cfg.d then
          invalid_arg "F2_moment: input length must equal the universe size";
        let sum_of_squares = ref 0.0 in
        {
          Bcast.send = (fun ~round -> local_sum cfg ~rep:round ~input + cfg.d);
          receive =
            (fun ~round:_ messages ->
              let z =
                Array.fold_left (fun acc v -> acc + v - cfg.d) 0 messages
              in
              sum_of_squares := !sum_of_squares +. (float_of_int z ** 2.0));
          finish = (fun () -> !sum_of_squares /. float_of_int cfg.repetitions);
        });
  }

let exact_f2 inputs =
  if Array.length inputs = 0 then 0.0
  else begin
    let d = Bitvec.length inputs.(0) in
    let f2 = ref 0.0 in
    for j = 0 to d - 1 do
      let freq =
        Array.fold_left (fun acc x -> if Bitvec.get x j then acc + 1 else acc) 0 inputs
      in
      f2 := !f2 +. (float_of_int freq ** 2.0)
    done;
    !f2
  end

let relative_error cfg inputs g =
  let truth = exact_f2 inputs in
  if truth <= 0.0 then invalid_arg "F2_moment.relative_error: F2 must be positive";
  let result = Bcast.run (protocol cfg) ~inputs ~rand:g in
  Float.abs (result.Bcast.outputs.(0) -. truth) /. truth
