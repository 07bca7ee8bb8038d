(** Resolved, typed intermediate representation of a GEL program.

    Names are resolved to indices (locals, global slots, arrays,
    functions, externs), word literals are masked, [for] loops are
    lowered to [While] with an explicit step block, and every expression
    carries enough type information (the [kind]) for backends to pick
    int vs word operation variants. This one IR feeds four consumers:
    the reference interpreter, the stack-VM compiler, the register-VM
    compiler, and the pretty-printer. *)

type ty = Ast.ty

(** Numeric kind of an arithmetic operation: [Kint] is host-width
    signed, [Kword] is unsigned 32-bit wrapping. *)
type kind = Kint | Kword

type arith = Add | Sub | Mul | Div | Mod | Shl | Shr | Lshr | Band | Bor | Bxor

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Const of int
  | Local of int
  | Global of int  (** global scalar slot *)
  | Load of int * expr  (** array index, subscript *)
  | Arith of kind * arith * expr * expr
  | Cmp of cmp * expr * expr
  | Not of expr
  | Bnot of kind * expr
  | Neg of kind * expr
  | And of expr * expr  (** short-circuit *)
  | Or of expr * expr  (** short-circuit *)
  | Call of int * expr array
  | CallExt of int * expr array
  | ToWord of expr  (** int -> word: mask to 32 bits *)
  | ToBool of expr  (** numeric -> bool: v <> 0 *)

type stmt =
  | Set_local of int * expr
  | Set_global of int * expr
  | Store of int * expr * expr  (** array index, subscript, value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list * stmt list
      (** condition, body, step; [Continue] jumps to the step block,
          which a plain while leaves empty *)
  | Return of expr option
  | Break
  | Continue
  | Eval of expr
  | At of Srcloc.pos * stmt
      (** source-located statement, produced only by
          [Typecheck.check_program_located] for the diagnostics
          front-end; the execution backends treat it as transparent *)

type gvar = { gname : string; gty : ty; ginit : int }

type arr = {
  aname : string;
  asize : int;
  aelem : ty;
  ashared : bool;
  ainit : int array option;  (** constant initializer, private arrays only *)
}

type func = {
  fname : string;
  fparams : ty list;
  fret : ty option;
  nlocals : int;  (** total local slots incl. parameters *)
  body : stmt list;
}

type ext = { ename : string; eparams : ty list; eret : ty option }

type program = {
  globals : gvar array;
  arrays : arr array;
  funcs : func array;
  externs : ext array;
}

let find_func prog name =
  let rec go i =
    if i >= Array.length prog.funcs then None
    else if prog.funcs.(i).fname = name then Some i
    else go (i + 1)
  in
  go 0

(** The index of [name], checked to take [nargs] arguments: the one
    entry-point resolver. Every compiler and pass keeps IR function i
    at index i, so the index enters every tier compiled from [prog];
    an engine's [run_session ~fn] then compares no name. *)
let entry prog name ~nargs =
  match find_func prog name with
  | None -> Error (Printf.sprintf "no function named %s" name)
  | Some i ->
      let arity = List.length prog.funcs.(i).fparams in
      if arity <> nargs then
        Error
          (Printf.sprintf "%s expects %d arguments, given %d" name arity nargs)
      else Ok i

(** Count of expression + statement nodes, a rough program size used by
    fuel heuristics and tests. *)
let size prog =
  let rec esize = function
    | Const _ | Local _ | Global _ -> 1
    | Load (_, e) | Not e | Bnot (_, e) | Neg (_, e) | ToWord e | ToBool e ->
        1 + esize e
    | Arith (_, _, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        1 + esize a + esize b
    | Call (_, args) | CallExt (_, args) ->
        Array.fold_left (fun acc e -> acc + esize e) 1 args
  and ssize = function
    | Set_local (_, e) | Set_global (_, e) | Eval e -> 1 + esize e
    | Store (_, i, v) -> 1 + esize i + esize v
    | If (c, t, f) -> (1 + esize c + bsize t) + bsize f
    | While (c, b, s) -> 1 + esize c + bsize b + bsize s
    | Return (Some e) -> 1 + esize e
    | Return None | Break | Continue -> 1
    | At (_, s) -> ssize s
  and bsize stmts = List.fold_left (fun acc s -> acc + ssize s) 0 stmts in
  Array.fold_left (fun acc f -> acc + bsize f.body) 0 prog.funcs
