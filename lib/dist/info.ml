let log2 x = Float.log x /. Float.log 2.0

let binary_entropy p =
  if p < 0.0 || p > 1.0 then invalid_arg "Info.binary_entropy";
  if p = 0.0 || p = 1.0 then 0.0
  else (-.p *. log2 p) -. ((1.0 -. p) *. log2 (1.0 -. p))

let binary_entropy_inv_gap p =
  let d = p -. 0.5 in
  if Float.abs d < 1e-9 then 2.0 /. Float.log 2.0
  else (1.0 -. binary_entropy p) /. (d *. d)

let marginal_x joint = Dist.map fst joint
let marginal_y joint = Dist.map snd joint

let conditional_entropy joint =
  (* H(Y|X) = H(X,Y) - H(X). *)
  Dist.entropy joint -. Dist.entropy (marginal_x joint)

let mutual_information joint =
  let v = Dist.entropy (marginal_y joint) -. conditional_entropy joint in
  Float.max v 0.0

let mutual_information_via_kl joint =
  let px = marginal_x joint in
  let py = marginal_y joint in
  Dist.expectation px (fun x ->
      match Dist.condition joint (fun (x', _) -> x' = x) with
      | None -> 0.0
      | Some cond -> Dist.kl_divergence (Dist.map snd cond) py)

let pinsker_bound p q =
  let d = Dist.kl_divergence p q in
  if d = Float.infinity then Float.infinity else Float.sqrt (d /. 2.0)
