let foi = float_of_int

(* One [Prng.split] child per trial, fanned out by [Par]: the gap is a
   function of [g]'s seed alone, independent of the domain count.  Each
   simulator run builds its own [Rand_counter]s inside the trial body,
   so nothing mutable crosses domains (protocol values whose [spawn]
   closes over shared mutable state must synchronise it — the in-repo
   protocols do). *)
let protocol_gap proto ~sample_yes ~sample_no ~trials g =
  let rate branch sample =
    let outcomes =
      Par.map_trials branch ~trials (fun ~trial:_ gt ->
          let result = Bcast.run proto ~inputs:(sample gt) ~rand:gt in
          result.Bcast.outputs.(0))
    in
    let hits = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 outcomes in
    foi hits /. foi trials
  in
  rate (Prng.split g 0) sample_yes -. rate (Prng.split g 1) sample_no

let transcript_tv_sampled proto ~sample_a ~sample_b ~samples g =
  let da = Turn_model.sampled_transcript_dist proto ~sample:sample_a ~samples g in
  let db = Turn_model.sampled_transcript_dist proto ~sample:sample_b ~samples g in
  Dist.tv_distance da db

let transcript_tv_control proto ~sample ~samples g =
  transcript_tv_sampled proto ~sample_a:sample ~sample_b:sample ~samples g

let best_threshold_advantage ~statistic_a ~statistic_b =
  (* Sweep every observed value as a threshold; the best advantage of the
     test [stat > thr] or its negation. *)
  let candidates = Array.append statistic_a statistic_b in
  let na = foi (Array.length statistic_a) and nb = foi (Array.length statistic_b) in
  let exceed arr thr =
    Array.fold_left (fun acc x -> if x > thr then acc + 1 else acc) 0 arr
  in
  let best = ref 0.0 in
  Array.iter
    (fun thr ->
      let pa = foi (exceed statistic_a thr) /. na in
      let pb = foi (exceed statistic_b thr) /. nb in
      let adv = Float.abs (pa -. pb) in
      if adv > !best then best := adv)
    candidates;
  !best
