type stat = { minflt : int; majflt : int; utime_ticks : int; stime_ticks : int }

let words s =
  List.filter (fun w -> w <> "")
    (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s))

(* After the [(comm)] field the line continues with field 3 (state), so
   field f sits at index f - 3: minflt 10, majflt 12, utime 14, stime 15. *)
let parse_stat s =
  match String.rindex_opt s ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let fields = Array.of_list (words (String.trim rest)) in
      let field f =
        if f - 3 < Array.length fields then int_of_string_opt fields.(f - 3)
        else None
      in
      match (field 10, field 12, field 14, field 15) with
      | Some minflt, Some majflt, Some utime_ticks, Some stime_ticks ->
          Some { minflt; majflt; utime_ticks; stime_ticks }
      | _ -> None)

let parse_kb s ~key =
  let prefix = key ^ ":" in
  let plen = String.length prefix in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        match words (String.sub line plen (String.length line - plen)) with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else None)
    (String.split_on_char '\n' s)

let parse_thp s =
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some a, Some b when b > a + 1 -> Some (String.sub s (a + 1) (b - a - 1))
  | _ -> None

let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let scale =
      match s.[n - 1] with
      | 'K' | 'k' -> Some 1024
      | 'M' | 'm' -> Some (1024 * 1024)
      | 'G' | 'g' -> Some (1024 * 1024 * 1024)
      | '0' .. '9' -> Some 1
      | _ -> None
    in
    match scale with
    | None -> None
    | Some 1 -> int_of_string_opt s
    | Some k ->
        Option.map (fun v -> v * k) (int_of_string_opt (String.sub s 0 (n - 1)))

let clock_ticks_per_s = 100

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let zero_stat = { minflt = 0; majflt = 0; utime_ticks = 0; stime_ticks = 0 }

let self_stat () =
  match Option.bind (read_file "/proc/self/stat") parse_stat with
  | Some st -> st
  | None -> zero_stat

let self_status_kb key =
  Option.bind (read_file "/proc/self/status") (parse_kb ~key)

let meminfo_kb key = Option.bind (read_file "/proc/meminfo") (parse_kb ~key)

let thp_mode () =
  Option.bind (read_file "/sys/kernel/mm/transparent_hugepage/enabled") parse_thp

(* index0..indexN under cpu0's cache directory; keep the highest level
   that reports a size. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let rec scan i best =
    let base = Printf.sprintf "%s/index%d" dir i in
    match read_file (base ^ "/level") with
    | None -> best
    | Some lv ->
        let level = Option.value ~default:0 (int_of_string_opt (String.trim lv)) in
        let size = Option.bind (read_file (base ^ "/size")) parse_size in
        let higher = match best with Some (bl, _) -> level >= bl | None -> true in
        let best =
          match size with Some sz when higher -> Some (level, sz) | _ -> best
        in
        scan (i + 1) best
  in
  Option.map snd (scan 0 None)
