(* Capturing a run's trace events, and the JSONL wire format for them. *)

let capture body =
  let acc = ref [] in
  Trace.set_sink (fun e -> acc := e :: !acc);
  let result = Fun.protect ~finally:Trace.clear_sink body in
  (result, List.rev !acc)

(* ------------------------------------------------------- serialization *)

let payload_to_json (p : Trace.payload) : Artifact.json =
  let obj ty fields = Artifact.Obj (("type", Artifact.String ty) :: fields) in
  let i k v = (k, Artifact.Int v) in
  let s k v = (k, Artifact.String v) in
  match p with
  | Span_start { name } -> obj "span_start" [ s "name" name ]
  | Span_end { name } -> obj "span_end" [ s "name" name ]
  | Spawn { id; n; input_bits } ->
      obj "spawn" [ i "id" id; i "n" n; i "input_bits" input_bits ]
  | Finish { id } -> obj "finish" [ i "id" id ]
  | Round_start { round; n } -> obj "round_start" [ i "round" round; i "n" n ]
  | Round_end { round; n; msg_bits } ->
      obj "round_end" [ i "round" round; i "n" n; i "msg_bits" msg_bits ]
  | Broadcast { round; sender; value; msg_bits } ->
      obj "broadcast"
        [ i "round" round; i "sender" sender; i "value" value; i "msg_bits" msg_bits ]
  | Unicast_send { round; sender; messages; msg_bits } ->
      obj "unicast_send"
        [ i "round" round; i "sender" sender; i "messages" messages;
          i "msg_bits" msg_bits ]
  | Turn { turn; speaker; bit } ->
      obj "turn"
        [ i "turn" turn; i "speaker" speaker; ("bit", Artifact.Bool bit) ]
  | Rand_draw { owner; op; bits } ->
      obj "rand_draw" [ i "owner" owner; s "op" op; i "bits" bits ]

let event_to_json (e : Trace.event) : Artifact.json =
  Artifact.Obj
    [
      ("seq", Artifact.Int e.seq);
      ("scope", Artifact.String e.scope);
      ("event", payload_to_json e.payload);
    ]

let to_jsonl events =
  let buf = Buffer.create (256 * List.length events) in
  List.iter
    (fun e ->
      Buffer.add_string buf (Artifact.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf
