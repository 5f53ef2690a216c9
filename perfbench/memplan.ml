let foi = float_of_int
let choose2 n = foi n *. foi (n - 1) /. 2.0
let pairs_mean ~n ~p = choose2 n *. p

let pairs_hi ~n ~p =
  let mean = pairs_mean ~n ~p in
  mean +. (6.0 *. Float.sqrt (mean *. (1.0 -. p)))

let csr_entries ~n ~p ~k =
  2.0 *. (pairs_mean ~n ~p +. (choose2 k *. (1.0 -. p)))

let csr_bytes ~n ~p ~k = 8.0 *. (csr_entries ~n ~p ~k +. foi (n + 1))

let working_set_bytes ~n ~p ~k =
  (48.0 *. pairs_hi ~n ~p) +. (16.0 *. choose2 k) +. (64.0 *. foi n)
  +. (64.0 *. 1024.0 *. 1024.0)

let gb bytes = bytes /. 1e9

let preflight ~needed ~available_kb =
  match available_kb with
  | None -> Ok ()
  | Some kb ->
      let available = foi kb *. 1024.0 in
      if needed <= available then Ok ()
      else
        Error
          ((* bcc-lint: allow det/float-format — a refusal message for the console *)
           Printf.sprintf
             "needs an estimated %.2f GB working set but MemAvailable is %.2f GB; \
              refusing to start rather than be OOM-killed"
             (gb needed) (gb available))
