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

exception Decode_error of string

let payload_of_json j : Trace.payload =
  let fail msg = raise (Decode_error msg) in
  let get conv k =
    match Option.bind (Artifact.member k j) conv with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing or mistyped field %S" k)
  in
  let i = get Artifact.to_int_opt in
  let s = get Artifact.to_string_opt in
  match get Artifact.to_string_opt "type" with
  | "span_start" -> Span_start { name = s "name" }
  | "span_end" -> Span_end { name = s "name" }
  | "spawn" -> Spawn { id = i "id"; n = i "n"; input_bits = i "input_bits" }
  | "finish" -> Finish { id = i "id" }
  | "round_start" -> Round_start { round = i "round"; n = i "n" }
  | "round_end" ->
      Round_end { round = i "round"; n = i "n"; msg_bits = i "msg_bits" }
  | "broadcast" ->
      Broadcast
        { round = i "round"; sender = i "sender"; value = i "value";
          msg_bits = i "msg_bits" }
  | "unicast_send" ->
      Unicast_send
        { round = i "round"; sender = i "sender"; messages = i "messages";
          msg_bits = i "msg_bits" }
  | "turn" ->
      let bit =
        match Artifact.member "bit" j with
        | Some (Artifact.Bool b) -> b
        | _ -> fail "missing or mistyped field \"bit\""
      in
      Turn { turn = i "turn"; speaker = i "speaker"; bit }
  | "rand_draw" -> Rand_draw { owner = i "owner"; op = s "op"; bits = i "bits" }
  | ty -> fail (Printf.sprintf "unknown event type %S" ty)

let event_of_json j : Trace.event =
  let fail msg = raise (Decode_error msg) in
  let seq =
    match Option.bind (Artifact.member "seq" j) Artifact.to_int_opt with
    | Some v -> v
    | None -> fail "missing event seq"
  in
  let scope =
    match Option.bind (Artifact.member "scope" j) Artifact.to_string_opt with
    | Some v -> v
    | None -> fail "missing event scope"
  in
  let payload =
    match Artifact.member "event" j with
    | Some p -> payload_of_json p
    | None -> fail "missing event payload"
  in
  { seq; scope; payload }

let to_jsonl events =
  let buf = Buffer.create (256 * List.length events) in
  List.iter
    (fun e ->
      Buffer.add_string buf (Artifact.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else Some (event_of_json (Artifact.of_string line)))
