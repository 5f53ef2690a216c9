type entry = { turn : int; round : int; sender : int; value : int }

(* Rounds newest first, one packed copy each, never written after
   [append]: O(1) append of a whole round, and prefixes share rounds.
   A round holds its messages at [width] bytes each (1, 2 or 4, the
   least that fits [msg_bits]), little-endian; one 4-byte width for
   every [msg_bits] held bcast-clique's peak RSS ~5% higher. *)
type t = { msg_bits : int; width : int; rev_rounds : Bytes.t list; len : int }

let empty ~msg_bits =
  if msg_bits < 1 || msg_bits > 30 then invalid_arg "Transcript.empty: msg_bits in [1,30]";
  let width = if msg_bits <= 8 then 1 else if msg_bits <= 16 then 2 else 4 in
  { msg_bits; width; rev_rounds = []; len = 0 }

let msg_bits t = t.msg_bits

let check_value t v =
  if v < 0 || v >= 1 lsl t.msg_bits then
    invalid_arg "Transcript.append: message value out of range"

(* The [i]-th message of a packed round. *)
let get width r i =
  match width with
  | 1 -> Bytes.get_uint8 r i
  | 2 -> Bytes.get_uint16_le r (2 * i)
  | _ -> Int32.to_int (Bytes.get_int32_le r (4 * i))

let pack t messages =
  let w = t.width and n = Array.length messages in
  let r = Bytes.create (w * n) in
  for i = 0 to n - 1 do
    let v = messages.(i) in
    check_value t v;
    match w with
    | 1 -> Bytes.set_uint8 r i v
    | 2 -> Bytes.set_uint16_le r (2 * i) v
    | _ -> Bytes.set_int32_le r (4 * i) (Int32.of_int v)
  done;
  r

let append t messages =
  {
    t with
    rev_rounds = pack t messages :: t.rev_rounds;
    len = t.len + Array.length messages;
  }

let length t = t.len

(* Every broadcast in chronological order. *)
let iter f t =
  let turn = ref 0 in
  List.iteri
    (fun round r ->
      for sender = 0 to (Bytes.length r / t.width) - 1 do
        f { turn = !turn; round; sender; value = get t.width r sender };
        incr turn
      done)
    (List.rev t.rev_rounds)

let entries t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let entry t i =
  if i < 0 || i >= t.len then invalid_arg "Transcript.entry: index out of range";
  List.nth (entries t) i

let messages_of_round t r =
  List.filter_map
    (fun e -> if e.round = r then Some (e.sender, e.value) else None)
    (entries t)

let messages_of_sender t i =
  List.filter_map
    (fun e -> if e.sender = i then Some (e.turn, e.value) else None)
    (entries t)

let bit_length t = t.len * t.msg_bits

let key t =
  let buf = Buffer.create (16 + (t.len * 6)) in
  Buffer.add_string buf (string_of_int t.msg_bits);
  iter
    (fun e ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int e.sender);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int e.value))
    t;
  Buffer.contents buf

let prefix t i =
  if i < 0 || i > t.len then invalid_arg "Transcript.prefix";
  (* Drop whole rounds from the newest end, then cut the round that
     straddles [i]. *)
  let rec drop excess = function
    | r :: rest when excess > 0 ->
        let len = Bytes.length r / t.width in
        if excess >= len then drop (excess - len) rest
        else Bytes.sub r 0 ((len - excess) * t.width) :: rest
    | rounds -> rounds
  in
  { t with rev_rounds = drop (t.len - i) t.rev_rounds; len = i }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  iter
    (fun e ->
      Format.fprintf fmt "turn %d (round %d): processor %d -> %d@ " e.turn e.round
        e.sender e.value)
    t;
  Format.fprintf fmt "@]"
