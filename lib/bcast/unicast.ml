type 'out processor = {
  send : round:int -> int array;
  receive : round:int -> int array -> unit;
  finish : unit -> 'out;
}

type 'out protocol = {
  name : string;
  msg_bits : int;
  rounds : int;
  spawn : id:int -> n:int -> input:Bitvec.t -> rand:Bcast.Rand_counter.t -> 'out processor;
}

type 'out result = {
  outputs : 'out array;
  rounds_used : int;
  channel_bits : int;
  random_bits : int array;
}

(* Built-in instrumentation, active only while [Metrics.collecting ()]. *)
let m_runs = lazy (Metrics.counter "unicast_runs_total")
let m_rounds = lazy (Metrics.counter "unicast_rounds_total")
let m_channel_bits = lazy (Metrics.counter "unicast_channel_bits_total")

(* One run; [run_with_sources] checks the arguments and opens its span. *)
let simulate proto ~inputs ~sources =
  let n = Array.length inputs in
  let scope = proto.name in
  let traced = Trace.enabled () in
  if traced then
    Array.iteri
      (fun id input ->
        Trace.emit ~scope (Trace.Spawn { id; n; input_bits = Bitvec.length input }))
      inputs;
  let max_value = 1 lsl proto.msg_bits in
  let procs =
    Array.init n (fun id -> proto.spawn ~id ~n ~input:inputs.(id) ~rand:sources.(id))
  in
  for round = 0 to proto.rounds - 1 do
    if traced then Trace.emit ~scope (Trace.Round_start { round; n });
    (* outboxes.(i).(j): i's message to j. *)
    let outboxes = Array.map (fun p -> p.send ~round) procs in
    Array.iteri
      (fun i out ->
        if Array.length out <> n then invalid_arg "Unicast.run: outbox size mismatch";
        Array.iter
          (fun v -> if v < 0 || v >= max_value then
              invalid_arg "Unicast.run: message value out of range")
          out;
        if traced then
          Trace.emit ~scope
            (Trace.Unicast_send
               { round; sender = i; messages = n - 1; msg_bits = proto.msg_bits }))
      outboxes;
    Array.iteri
      (fun j p ->
        let inbox = Array.init n (fun i -> outboxes.(i).(j)) in
        p.receive ~round inbox)
      procs;
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
  let channel_bits = proto.rounds * n * (n - 1) * proto.msg_bits in
  if Metrics.collecting () then begin
    Metrics.inc (Lazy.force m_runs);
    Metrics.inc ~by:proto.rounds (Lazy.force m_rounds);
    Metrics.inc ~by:channel_bits (Lazy.force m_channel_bits)
  end;
  {
    outputs;
    rounds_used = proto.rounds;
    channel_bits;
    random_bits = Array.map Bcast.Rand_counter.bits_used sources;
  }

let run_with_sources proto ~inputs ~sources =
  if Array.length inputs = 0 then invalid_arg "Unicast.run: no processors";
  Array.iteri (fun id r -> Bcast.Rand_counter.set_owner r id) sources;
  Prof.span ("unicast:" ^ proto.name) (fun () -> simulate proto ~inputs ~sources)

let run proto ~inputs ~rand =
  let n = Array.length inputs in
  let sources = Array.init n (fun i -> Bcast.Rand_counter.make (Prng.split rand i)) in
  run_with_sources proto ~inputs ~sources

let run_deterministic proto ~inputs =
  let n = Array.length inputs in
  let sources = Array.init n (fun _ -> Bcast.Rand_counter.deterministic ()) in
  run_with_sources proto ~inputs ~sources

let lift_broadcast (bp : 'out Bcast.protocol) =
  {
    name = bp.Bcast.name ^ " (lifted to unicast)";
    msg_bits = bp.Bcast.msg_bits;
    rounds = bp.Bcast.rounds;
    spawn =
      (fun ~id ~n ~input ~rand ->
        (* No shared channel: each processor steps its own copy of the
           public state from the inbox, which holds every sender's value. *)
        let inst = bp.Bcast.start ~n in
        let p = inst.Bcast.spawn ~id ~input ~rand in
        {
          send = (fun ~round -> Array.make n (p.Bcast.send ~round));
          receive =
            (fun ~round inbox ->
              inst.Bcast.public ~round inbox;
              p.Bcast.receive ~round inbox);
          finish = p.Bcast.finish;
        });
  }
