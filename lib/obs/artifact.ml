(* Machine-readable run artifacts: a minimal JSON representation, a
   serializer whose output is deterministic (so identical runs produce
   byte-identical artifacts), a recursive-descent parser (for `bench
   compare`'s baseline and the tests' round-trip checks), and the
   envelope every artifact shares (schema version, seed, parameters, git
   describe). *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let schema_version = 1

(* ------------------------------------------------------------ printing *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else begin
    (* Shortest representation that round-trips through float_of_string. *)
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  end

let to_string ?(pretty = false) j =
  let buf = Buffer.create 1024 in
  let rec go indent j =
    let nl_sep n =
      if pretty then "\n" ^ String.make (2 * n) ' ' else ""
    in
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (nl_sep (indent + 1));
            go (indent + 1) item)
          items;
        Buffer.add_string buf (nl_sep indent);
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (nl_sep (indent + 1));
            escape_string buf k;
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            go (indent + 1) v)
          fields;
        Buffer.add_string buf (nl_sep indent);
        Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %S" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* The artifacts only ever emit \u00xx control escapes; decode
                 the Latin-1 range and reject the rest rather than carry a
                 full UTF-8 encoder. *)
              if code < 0x100 then Buffer.add_char buf (Char.chr code)
              else fail "\\u escape beyond latin-1 unsupported"
          | _ -> fail "bad escape");
          go ()
        end
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some x -> Float x
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_number ()
        else fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ----------------------------------------------------------- accessors *)

let member key j =
  match j with
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None

(* ------------------------------------------------------------ envelope *)

let git_describe () =
  (* Best-effort provenance; artifacts stay usable outside a checkout. *)
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")
  with _ -> "unknown"

let make ~kind ~id ?seed ?(params = []) payload =
  Obj
    [
      ("schema_version", Int schema_version);
      ("kind", String kind);
      ("id", String id);
      ("seed", (match seed with Some s -> Int s | None -> Null));
      ("params", Obj params);
      ("git", String (git_describe ()));
      ("payload", payload);
    ]

let default_dir = "_artifacts"

(* [mkdir -p]: create [dir] after its missing parents.  A directory that
   appears between the test and the mkdir is as good as one that was
   there. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Failures come out as [Sys_error], the way [open_out]'s do. *)
let ensure_dir dir =
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e))));
  if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": Not a directory"))

let write_text ~path text =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  try
    output_string oc text;
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e

let write_file ~path j = write_text ~path (to_string ~pretty:true j ^ "\n")

let read_file ~path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string (String.trim s)
