type t = { n : int; members : Bytes.t; count : int }

let check_arity n =
  if n < 0 || n > 24 then invalid_arg "Restriction: arity out of range [0, 24]"

let of_bytes n members =
  let count = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr count) members;
  if !count = 0 then invalid_arg "Restriction: empty domain";
  { n; members; count = !count }

let full n =
  check_arity n;
  of_bytes n (Bytes.make (1 lsl n) '\001')

let of_pred n pred =
  check_arity n;
  of_bytes n (Bytes.init (1 lsl n) (fun x -> if pred x then '\001' else '\000'))

let of_list n xs =
  check_arity n;
  let members = Bytes.make (1 lsl n) '\000' in
  List.iter
    (fun x ->
      if x < 0 || x >= 1 lsl n then invalid_arg "Restriction.of_list: out of range";
      Bytes.set members x '\001')
    xs;
  of_bytes n members

let random_subset g ~n ~keep_prob =
  check_arity n;
  if keep_prob <= 0.0 || keep_prob > 1.0 then
    invalid_arg "Restriction.random_subset: keep_prob in (0,1]";
  let rec try_once () =
    let members =
      Bytes.init (1 lsl n) (fun _ -> if Prng.bernoulli g keep_prob then '\001' else '\000')
    in
    if Bytes.exists (fun c -> c = '\001') members then of_bytes n members else try_once ()
  in
  try_once ()

let random_of_deficit g ~n ~t =
  check_arity n;
  let total = 1 lsl n in
  let target = max 1 (int_of_float (Float.round (float_of_int total /. (2.0 ** t)))) in
  let perm = Prng.permutation g total in
  let members = Bytes.make total '\000' in
  for i = 0 to target - 1 do
    Bytes.set members perm.(i) '\001'
  done;
  of_bytes n members

let arity d = d.n
let size d = d.count

let mem d x = x >= 0 && x < Bytes.length d.members && Bytes.get d.members x = '\001'

let log2 x = Float.log x /. Float.log 2.0

let deficit d = float_of_int d.n -. log2 (float_of_int d.count)

let forced_ones d coords =
  let mask =
    List.fold_left
      (fun acc i ->
        if i < 0 || i >= d.n then invalid_arg "Restriction.forced_ones";
        acc lor (1 lsl i))
      0 coords
  in
  let members = Bytes.make (Bytes.length d.members) '\000' in
  let any = ref false in
  for x = 0 to Bytes.length d.members - 1 do
    if Bytes.get d.members x = '\001' && x land mask = mask then begin
      Bytes.set members x '\001';
      any := true
    end
  done;
  if !any then Some (of_bytes d.n members) else None

let coordinate_one_prob d j =
  if j < 0 || j >= d.n then invalid_arg "Restriction.coordinate_one_prob";
  let ones = ref 0 in
  for x = 0 to Bytes.length d.members - 1 do
    if Bytes.get d.members x = '\001' && x land (1 lsl j) <> 0 then incr ones
  done;
  float_of_int !ones /. float_of_int d.count

let coordinate_entropy d j = Info.binary_entropy (coordinate_one_prob d j)

let elements d =
  let acc = ref [] in
  for x = Bytes.length d.members - 1 downto 0 do
    if Bytes.get d.members x = '\001' then acc := x :: !acc
  done;
  !acc
