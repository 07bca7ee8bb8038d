(* A minimal JSON reader for the few places the toolkit consumes its
   own output — the bench regression gate parsing a committed baseline
   file. Recursive descent over the full grammar (objects, arrays,
   strings with escapes, numbers, booleans, null); no streaming, no
   preserved number formatting, errors as [Error msg] with a byte
   offset. Writing JSON stays with the printf-style emitters; this
   module gives them the one string escaper. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let len = String.length st.src in
  while
    st.pos < len
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'u' ->
            (* \uXXXX: decode the code point, emit UTF-8. Surrogate
               pairs are passed through as two 3-byte sequences —
               lossy but adequate for our own ASCII output. *)
            if st.pos + 4 >= String.length st.src then
              error st "truncated \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let cp =
              try int_of_string ("0x" ^ hex)
              with _ -> error st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
            else if cp < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
        | _ -> error st "bad escape");
        advance st;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let len = String.length st.src in
  let numchar c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < len && numchar st.src.[st.pos] do
    advance st
  done;
  if st.pos = start then error st "expected number";
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> error st "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elems (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> error st "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse src =
  let st = { src; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then Error "trailing characters"
    else Ok v
  with Fail msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function
  | Num f -> Some f
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | List l -> Some l
  | _ -> None

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""
