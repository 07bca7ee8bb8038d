(** Hand-written lexer for GEL: decimal and [0x] hex literals, line
    ([//]) and block ([/* ... */]) comments, and the full operator set
    including the logical shift [>>>]. Characters are read and compared
    in place, so looking at the input allocates nothing; each token,
    its string and its position are the only allocations. *)

type t

val create : string -> t

(** Next token and its starting position. Raises [Srcloc.Error] on
    malformed input (bad character, unterminated comment, literal out
    of range). *)
val next : t -> Token.t * Srcloc.pos

(** Tokenize a whole source string, ending with [EOF] (for tests). *)
val tokenize : string -> (Token.t * Srcloc.pos) list
