(** Abstract syntax of GEL as produced by the parser, before name
    resolution and typechecking. *)

type ty = Tint | Tword | Tbool

let ty_to_string = function Tint -> "int" | Tword -> "word" | Tbool -> "bool"

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | Lshr
  | Band | Bor | Bxor
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or  (** short-circuiting *)

type unop = Neg | Not | Bnot

type expr = { desc : expr_desc; pos : Srcloc.pos }

and expr_desc =
  | Int_lit of int
  | Bool_lit of bool
  | Var of string
  | Index of string * expr                 (* a[i] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list
  | Cast of ty * expr                      (* int(e) / word(e) / bool(e) *)

type stmt = { sdesc : stmt_desc; spos : Srcloc.pos }

and stmt_desc =
  | Decl of string * ty option * expr      (* var x : ty = e; *)
  | Assign of string * expr
  | Store of string * expr * expr          (* a[i] = e; *)
  | If of expr * block * block
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option
  | Break
  | Continue
  | Expr_stmt of expr

and block = stmt list

type param = { pname : string; pty : ty }

type global =
  | Gvar of { name : string; gty : ty; init : expr option; gpos : Srcloc.pos }
  | Garray of {
      name : string;
      size : int;
      elem : ty;  (** element type; [int] unless declared [: word] *)
      shared : bool;  (** mapped by the kernel rather than allocated *)
      init : expr list option;  (** constant initializer list *)
      gpos : Srcloc.pos;
    }
  | Gextern of {
      name : string;
      params : ty list;
      ret : ty option;
      gpos : Srcloc.pos;
    }
  | Gfn of {
      name : string;
      params : param list;
      ret : ty option;
      body : block;
      gpos : Srcloc.pos;
    }

type program = global list

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>" | Lshr -> ">>>"
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "&&" | Or -> "||"
