(** Hand-written lexer for GEL. Supports decimal and 0x hex literals,
    line comments [//] and block comments [/* ... */]. It reads and
    compares source characters in place, behind one end-of-input test,
    and scans each run of digits, identifier characters or comment text
    with one table look per character; the tokens, their strings and
    their positions are its only allocations. *)

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let create src = { src; len = String.length src; pos = 0; line = 1; col = 1 }

let location lx = { Srcloc.line = lx.line; col = lx.col }

(* [has lx k]: the source has a character [k] places ahead; [char lx k]
   reads it, and only ever behind that test. *)
let[@inline] has lx k = lx.pos + k < lx.len
let[@inline] char lx k = String.unsafe_get lx.src (lx.pos + k)
let[@inline] looking_at lx k c = has lx k && char lx k = c

let advance lx =
  if has lx 0 then begin
    if char lx 0 = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1
  end;
  lx.pos <- lx.pos + 1

let is_digit = function '0' .. '9' -> true | _ -> false
let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

(* Character classes, one bit each; [class_of c] is [c]'s set. *)
let digit = 1
let hex = 2
let ident = 4
let not_newline = 8

let classes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      let bit b cls = if b then cls else 0 in
      let hex_letter = (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
      Char.chr
        (bit (is_digit c) digit
        lor bit (is_digit c || hex_letter) hex
        lor bit (is_ident_start c || is_digit c) ident
        lor bit (c <> '\n') not_newline))

let[@inline] class_of c = Char.code (String.unsafe_get classes (Char.code c))

(* Step over the run of characters of class [cls]; no class holds a
   newline, so the run stays on one line. *)
let skip_while lx cls =
  let i = ref lx.pos in
  while !i < lx.len && class_of (String.unsafe_get lx.src !i) land cls <> 0 do
    incr i
  done;
  lx.col <- lx.col + (!i - lx.pos);
  lx.pos <- !i

let skip_block_comment lx =
  let start = location lx in
  advance lx;
  advance lx;
  while not (looking_at lx 0 '*' && looking_at lx 1 '/') do
    if not (has lx 0) then Srcloc.error start "unterminated block comment";
    advance lx
  done;
  advance lx;
  advance lx

let keyword_or_ident = function
  | "fn" -> Token.KW_FN
  | "var" -> Token.KW_VAR
  | "array" -> Token.KW_ARRAY
  | "shared" -> Token.KW_SHARED
  | "extern" -> Token.KW_EXTERN
  | "if" -> Token.KW_IF
  | "else" -> Token.KW_ELSE
  | "while" -> Token.KW_WHILE
  | "for" -> Token.KW_FOR
  | "return" -> Token.KW_RETURN
  | "break" -> Token.KW_BREAK
  | "continue" -> Token.KW_CONTINUE
  | "true" -> Token.KW_TRUE
  | "false" -> Token.KW_FALSE
  | "int" -> Token.KW_INT
  | "word" -> Token.KW_WORD
  | "bool" -> Token.KW_BOOL
  | text -> Token.IDENT text

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> Char.code c - Char.code 'A' + 10

(* A literal of at most [safe_digits] digits cannot overflow, so its
   value is read from the source in place; a longer one goes through
   [int_of_string], whose range is the language's. [loc] is where the
   literal starts. *)
let lex_number lx loc =
  let start = lx.pos in
  let radix =
    if char lx 0 = '0' && (looking_at lx 1 'x' || looking_at lx 1 'X') then begin
      advance lx;
      advance lx;
      skip_while lx hex;
      if lx.pos = start + 2 then Srcloc.error loc "empty hex literal";
      16
    end
    else begin
      skip_while lx digit;
      10
    end
  in
  let first = if radix = 16 then start + 2 else start in
  let safe_digits = if radix = 16 then 15 else 18 in
  if lx.pos - first <= safe_digits then begin
    let n = ref 0 in
    for i = first to lx.pos - 1 do
      n := (!n * radix) + digit_value (String.unsafe_get lx.src i)
    done;
    Token.INT !n
  end
  else
    let text = String.sub lx.src start (lx.pos - start) in
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None ->
        Srcloc.error loc "%s literal out of range: %s"
          (if radix = 16 then "hex" else "integer")
          text

let lex_ident lx =
  let start = lx.pos in
  skip_while lx ident;
  keyword_or_ident (String.sub lx.src start (lx.pos - start))

(* Step over an operator of [n] characters, none a newline. *)
let[@inline] step lx n t =
  lx.pos <- lx.pos + n;
  lx.col <- lx.col + n;
  t

let one lx t = step lx 1 t
let two lx t = step lx 2 t

let lex_operator lx loc c =
  (* No two-character operator ends in NUL, so NUL stands in for the
     end of input after [c]. *)
  let c2 = if has lx 1 then char lx 1 else '\000' in
  match (c, c2) with
  | '<', '<' -> two lx Token.SHL
  | '<', '=' -> two lx Token.LE
  | '<', _ -> one lx Token.LT
  | '>', '>' -> if looking_at lx 2 '>' then step lx 3 Token.LSHR else two lx Token.SHR
  | '>', '=' -> two lx Token.GE
  | '>', _ -> one lx Token.GT
  | '=', '=' -> two lx Token.EQEQ
  | '=', _ -> one lx Token.ASSIGN
  | '!', '=' -> two lx Token.NE
  | '!', _ -> one lx Token.BANG
  | '&', '&' -> two lx Token.AMPAMP
  | '&', _ -> one lx Token.AMP
  | '|', '|' -> two lx Token.PIPEPIPE
  | '|', _ -> one lx Token.PIPE
  | '+', _ -> one lx Token.PLUS
  | '-', _ -> one lx Token.MINUS
  | '*', _ -> one lx Token.STAR
  | '/', _ -> one lx Token.SLASH
  | '%', _ -> one lx Token.PERCENT
  | '^', _ -> one lx Token.CARET
  | '~', _ -> one lx Token.TILDE
  | '(', _ -> one lx Token.LPAREN
  | ')', _ -> one lx Token.RPAREN
  | '{', _ -> one lx Token.LBRACE
  | '}', _ -> one lx Token.RBRACE
  | '[', _ -> one lx Token.LBRACKET
  | ']', _ -> one lx Token.RBRACKET
  | ';', _ -> one lx Token.SEMI
  | ':', _ -> one lx Token.COLON
  | ',', _ -> one lx Token.COMMA
  | _ -> Srcloc.error loc "unexpected character %C" c

(** Next token and its starting position, after any blanks and
    comments. *)
let rec next lx : Token.t * Srcloc.pos =
  if not (has lx 0) then (Token.EOF, location lx)
  else
    match char lx 0 with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        lx.col <- lx.col + 1;
        next lx
    | '\n' ->
        advance lx;
        next lx
    | '/' when looking_at lx 1 '/' ->
        skip_while lx not_newline;
        next lx
    | '/' when looking_at lx 1 '*' ->
        skip_block_comment lx;
        next lx
    | c ->
        let loc = location lx in
        let tok =
          if class_of c land digit <> 0 then lex_number lx loc
          else if class_of c land ident <> 0 then lex_ident lx
          else lex_operator lx loc c
        in
        (tok, loc)

(** Tokenize a whole source string (for tests). *)
let tokenize src =
  let lx = create src in
  let rec go acc =
    match next lx with
    | (Token.EOF, _) as last -> List.rev (last :: acc)
    | t -> go (t :: acc)
  in
  go []
