module Rand_counter = struct
  type source = Stream of Prng.t | Deterministic | Tape of Bitvec.t * int ref

  (* [owner] is the processor id the charges belong to (-1 outside a
     run); the runners set it so trace events attribute draws.  [dom] is
     the id of the domain that created the counter: the state is
     unsynchronised, so every draw asserts it still runs there (a counter
     created inside a parallel trial body lives and dies on one domain,
     which is the supported pattern — see docs/PARALLELISM.md). *)
  type t = {
    source : source;
    mutable used : int;
    mutable owner : int;
    dom : int;
  }

  let self_dom () = (Domain.self () :> int)
  let make g = { source = Stream g; used = 0; owner = -1; dom = self_dom () }

  let deterministic () =
    { source = Deterministic; used = 0; owner = -1; dom = self_dom () }

  let of_tape tape =
    { source = Tape (tape, ref 0); used = 0; owner = -1; dom = self_dom () }

  let[@inline] check_domain r =
    if self_dom () <> r.dom then
      failwith "Rand_counter: draw from a domain other than the creator's"

  let bits_used r = r.used
  let set_owner r id = r.owner <- id

  let trace_draw r op bits =
    if Trace.enabled () then
      Trace.emit ~scope:"rand" (Trace.Rand_draw { owner = r.owner; op; bits })

  let tape_bit tape pos =
    if !pos >= Bitvec.length tape then failwith "Rand_counter: tape exhausted";
    let b = Bitvec.get tape !pos in
    incr pos;
    b

  let bool r =
    check_domain r;
    r.used <- r.used + 1;
    trace_draw r "bool" 1;
    match r.source with
    | Stream g -> Prng.bool g
    | Tape (tape, pos) -> tape_bit tape pos
    | Deterministic -> failwith "Rand_counter: deterministic processor drew randomness"

  let bool_uncounted r =
    match r.source with
    | Stream g -> Prng.bool g
    | Tape (tape, pos) -> tape_bit tape pos
    | Deterministic -> failwith "Rand_counter: deterministic processor drew randomness"

  let bits r w =
    if w < 0 || w > 30 then invalid_arg "Rand_counter.bits: width in [0,30]";
    check_domain r;
    r.used <- r.used + w;
    trace_draw r "bits" w;
    let v = ref 0 in
    for i = 0 to w - 1 do
      if bool_uncounted r then v := !v lor (1 lsl i)
    done;
    !v

  let bitvec r len =
    check_domain r;
    r.used <- r.used + len;
    trace_draw r "bitvec" len;
    Bitvec.init len (fun _ -> bool_uncounted r)

  let int_below r bound =
    if bound <= 0 then invalid_arg "Rand_counter.int_below";
    if bound = 1 then 0
    else begin
      let w =
        let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
        width 0 (bound - 1)
      in
      let rec draw () =
        let v = bits r w in
        if v < bound then v else draw ()
      in
      draw ()
    end

  let bernoulli_bits = 30

  let bernoulli r p =
    (* Fixed-precision threshold comparison on exactly [bernoulli_bits]
       fresh bits — the documented charge; the assertion pins the
       accounting to the documentation. *)
    let before = r.used in
    let v = bits r bernoulli_bits in
    assert (r.used - before = bernoulli_bits);
    float_of_int v /. float_of_int (1 lsl bernoulli_bits) < p
end

type 'out processor = {
  send : round:int -> int;
  receive : round:int -> int array -> unit;
  finish : unit -> 'out;
}

type 'out instance = {
  spawn : id:int -> input:Bitvec.t -> rand:Rand_counter.t -> 'out processor;
  public : round:int -> int array -> unit;
}

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  start : n:int -> 'out instance;
}

let spawn_only spawn ~n =
  { spawn = (fun ~id ~input ~rand -> spawn ~id ~n ~input ~rand);
    public = (fun ~round:_ _ -> ()) }

type 'out result = {
  transcript : Transcript.t;
  outputs : 'out array;
  rounds_used : int;
  broadcast_bits : int;
  random_bits : int array;
}

(* Built-in instrumentation, active only while [Metrics.collecting ()]. *)
let m_runs = lazy (Metrics.counter "bcast_runs_total")
let m_rounds = lazy (Metrics.counter "bcast_rounds_total")
let m_broadcast_bits = lazy (Metrics.counter "bcast_broadcast_bits_total")

let m_bits_per_round =
  lazy
    (Metrics.histogram ~buckets:[| 1.; 8.; 32.; 128.; 512.; 2048.; 8192. |]
       "bcast_broadcast_bits_per_round")

let m_rand_bits =
  lazy
    (Metrics.histogram ~buckets:[| 0.; 1.; 8.; 32.; 128.; 512.; 2048.; 8192. |]
       "bcast_random_bits_per_processor")

(* One run; [run_with_sources] checks the arguments and opens its span. *)
let simulate proto ~inputs ~sources =
  let n = Array.length inputs in
  let scope = proto.name in
  let traced = Trace.enabled () in
  if traced then
    Array.iteri
      (fun id input ->
        Trace.emit ~scope
          (Trace.Spawn { id; n; input_bits = Bitvec.length input }))
      inputs;
  let inst = proto.start ~n in
  let procs =
    Array.init n (fun id -> inst.spawn ~id ~input:inputs.(id) ~rand:sources.(id))
  in
  let transcript = ref (Transcript.empty ~msg_bits:proto.msg_bits) in
  for round = 0 to proto.rounds - 1 do
    if traced then Trace.emit ~scope (Trace.Round_start { round; n });
    let messages = Array.map (fun p -> p.send ~round) procs in
    (* Traced, each value is checked right after its own event, so a bad
       value ends the stream at its sender; untraced, [append] checks. *)
    if traced then
      Array.iteri
        (fun sender value ->
          Trace.emit ~scope
            (Trace.Broadcast { round; sender; value; msg_bits = proto.msg_bits });
          Transcript.check_value !transcript value)
        messages;
    transcript := Transcript.append !transcript messages;
    inst.public ~round messages;
    Array.iter (fun p -> p.receive ~round messages) procs;
    if traced then
      Trace.emit ~scope (Trace.Round_end { round; n; msg_bits = proto.msg_bits })
  done;
  let outputs =
    Array.mapi
      (fun id p ->
        let out = p.finish () in
        if traced then Trace.emit ~scope (Trace.Finish { id });
        out)
      procs
  in
  let broadcast_bits = proto.rounds * n * proto.msg_bits in
  if Metrics.collecting () then begin
    Metrics.inc (Lazy.force m_runs);
    Metrics.inc ~by:proto.rounds (Lazy.force m_rounds);
    Metrics.inc ~by:broadcast_bits (Lazy.force m_broadcast_bits);
    if proto.rounds > 0 then
      Metrics.observe (Lazy.force m_bits_per_round)
        (float_of_int (n * proto.msg_bits));
    Array.iter
      (fun r ->
        Metrics.observe (Lazy.force m_rand_bits)
          (float_of_int (Rand_counter.bits_used r)))
      sources
  end;
  let random_bits = Array.map Rand_counter.bits_used sources in
  if Prof.enabled () then begin
    Prof.add Prof.Broadcast_bits broadcast_bits;
    Prof.add Prof.Prng_bits (Array.fold_left ( + ) 0 random_bits)
  end;
  {
    transcript = !transcript;
    outputs;
    rounds_used = proto.rounds;
    broadcast_bits;
    random_bits;
  }

let run_with_sources proto ~inputs ~sources =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Bcast.run: no processors";
  if Array.length sources <> n then invalid_arg "Bcast.run: sources/inputs mismatch";
  Array.iteri (fun id r -> Rand_counter.set_owner r id) sources;
  Prof.span ("bcast:" ^ proto.name) (fun () -> simulate proto ~inputs ~sources)

let run proto ~inputs ~rand =
  let n = Array.length inputs in
  let sources = Array.init n (fun i -> Rand_counter.make (Prng.split rand i)) in
  run_with_sources proto ~inputs ~sources

let run_deterministic proto ~inputs =
  let n = Array.length inputs in
  let sources = Array.init n (fun _ -> Rand_counter.deterministic ()) in
  run_with_sources proto ~inputs ~sources

let msg_bits_for_log_n n =
  if n < 2 then 1
  else begin
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    width 0 (n - 1)
  end

let map_output f proto =
  {
    proto with
    start =
      (fun ~n ->
        let inst = proto.start ~n in
        {
          inst with
          spawn =
            (fun ~id ~input ~rand ->
              let p = inst.spawn ~id ~input ~rand in
              { p with finish = (fun () -> f (p.finish ())) });
        });
  }

let with_rounds rounds proto = { proto with rounds }

let sequential p1 p2 =
  if p1.msg_bits <> p2.msg_bits then invalid_arg "Bcast.sequential: msg_bits mismatch";
  {
    name = Printf.sprintf "%s; %s" p1.name p2.name;
    msg_bits = p1.msg_bits;
    rounds = p1.rounds + p2.rounds;
    start =
      (fun ~n ->
        let s1 = p1.start ~n in
        let s2 = p2.start ~n in
        {
          spawn =
            (fun ~id ~input ~rand ->
              let a = s1.spawn ~id ~input ~rand in
              let b = s2.spawn ~id ~input ~rand in
              {
                send =
                  (fun ~round ->
                    if round < p1.rounds then a.send ~round
                    else b.send ~round:(round - p1.rounds));
                receive =
                  (fun ~round messages ->
                    if round < p1.rounds then a.receive ~round messages
                    else b.receive ~round:(round - p1.rounds) messages);
                finish = (fun () -> (a.finish (), b.finish ()));
              });
          public =
            (fun ~round messages ->
              if round < p1.rounds then s1.public ~round messages
              else s2.public ~round:(round - p1.rounds) messages);
        });
  }

let parallel_pair p1 p2 =
  let b1 = p1.msg_bits in
  if b1 + p2.msg_bits > 30 then invalid_arg "Bcast.parallel_pair: combined width > 30";
  let mask1 = (1 lsl b1) - 1 in
  let lane1 messages = Array.map (fun v -> v land mask1) messages in
  let lane2 messages = Array.map (fun v -> v lsr b1) messages in
  {
    name = Printf.sprintf "%s || %s" p1.name p2.name;
    msg_bits = b1 + p2.msg_bits;
    rounds = max p1.rounds p2.rounds;
    start =
      (fun ~n ->
        let s1 = p1.start ~n in
        let s2 = p2.start ~n in
        {
          spawn =
            (fun ~id ~input ~rand ->
              let a = s1.spawn ~id ~input ~rand in
              let b = s2.spawn ~id ~input ~rand in
              {
                send =
                  (fun ~round ->
                    let va = if round < p1.rounds then a.send ~round else 0 in
                    let vb = if round < p2.rounds then b.send ~round else 0 in
                    va lor (vb lsl b1));
                receive =
                  (fun ~round messages ->
                    if round < p1.rounds then a.receive ~round (lane1 messages);
                    if round < p2.rounds then b.receive ~round (lane2 messages));
                finish = (fun () -> (a.finish (), b.finish ()));
              });
          public =
            (fun ~round messages ->
              if round < p1.rounds then s1.public ~round (lane1 messages);
              if round < p2.rounds then s2.public ~round (lane2 messages));
        });
  }
