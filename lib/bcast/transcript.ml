type entry = { turn : int; round : int; sender : int; value : int }

(* Rounds newest first, one private copy each, never written after
   [append]: O(1) append of a whole round, and prefixes share rounds. *)
type t = { msg_bits : int; rev_rounds : int array list; len : int }

let empty ~msg_bits =
  if msg_bits < 1 || msg_bits > 30 then invalid_arg "Transcript.empty: msg_bits in [1,30]";
  { msg_bits; rev_rounds = []; len = 0 }

let msg_bits t = t.msg_bits

let check_value t v =
  if v < 0 || v >= 1 lsl t.msg_bits then
    invalid_arg "Transcript.append: message value out of range"

let append t messages =
  Array.iter (check_value t) messages;
  {
    t with
    rev_rounds = Array.copy messages :: t.rev_rounds;
    len = t.len + Array.length messages;
  }

let length t = t.len

(* Every broadcast in chronological order. *)
let iter f t =
  let turn = ref 0 in
  List.iteri
    (fun round messages ->
      Array.iteri
        (fun sender value ->
          f { turn = !turn; round; sender; value };
          incr turn)
        messages)
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
        let len = Array.length r in
        if excess >= len then drop (excess - len) rest
        else Array.sub r 0 (len - excess) :: rest
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
