(** A minimal JSON reader for consuming the toolkit's own output
    (e.g. the bench regression gate reading a committed baseline).
    Parses the full grammar; numbers become floats. Writing stays with
    the printf-style emitters, which share {!escape}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Parse a complete document. [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

(** Object member lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option

(** The body of a JSON string literal for [s], without the quotes:
    quote, backslash, newline and tab get their short escapes, other
    control bytes [\u00XX]; every other byte passes through. *)
val escape : string -> string

(** [escape s] between double quotes. *)
val quote : string -> string
