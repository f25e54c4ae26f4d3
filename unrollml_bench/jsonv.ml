(* A minimal JSON value type with a printer and a parser — enough for the
   benchmark's result files and for reading BENCHMARK.json. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integers print without a fraction; everything else with every digit a
   double carries, so a value read back is the value measured. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Jsonv: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> escape k ^ ":" ^ to_string v) kv)
    ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec fields acc =
          let k = string_lit () in
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            skip ();
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f when !pos > start -> Num f
      | _ -> fail "bad value")
  in
  match value () with
  | v ->
    skip ();
    if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> l | _ -> []
