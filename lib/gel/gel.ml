(** Front door for the GEL extension language.

    {[
      let prog = Gel.compile_exn source in
      let image = Gel.Link.link_fresh prog |> Result.get_ok in
      let fn = Gel.Ir.entry prog "main" ~nargs:0 |> Result.get_ok in
      Gel.Interp.run image ~fn ~args:[||] ~fuel:1_000_000
    ]}

    A graft fault raises [Graft_mem.Fault.Fault]. *)

module Srcloc = Srcloc
module Token = Token
module Lexer = Lexer
module Ast = Ast
module Parser = Parser
module Wordops = Wordops
module Ir = Ir
module Typecheck = Typecheck
module Link = Link
module Interp = Interp
module Optimize = Optimize
module Pretty = Pretty

(** Parse and typecheck GEL source; [optimize] additionally runs the
    {!Optimize} pass over the IR. *)
let compile ?(optimize = false) (src : string) : (Ir.program, Srcloc.error) result =
  match Typecheck.check_program (Parser.parse_program src) with
  | prog -> Ok (if optimize then Optimize.program prog else prog)
  | exception Srcloc.Error e -> Error e

(** Like [compile] but raises [Srcloc.Error]. *)
let compile_exn ?(optimize = false) src =
  let prog = Typecheck.check_program (Parser.parse_program src) in
  if optimize then Optimize.program prog else prog

(** Parse and typecheck keeping source positions: statements arrive
    wrapped in [Ir.At] and a side table maps functions and local slots
    back to names and declaration sites. This is the front door for the
    static analyzer's diagnostics ([graftkit check]); the execution
    backends use {!compile}. *)
let compile_located (src : string) :
    (Ir.program * Typecheck.program_meta, Srcloc.error) result =
  match Typecheck.check_program_located (Parser.parse_program src) with
  | r -> Ok r
  | exception Srcloc.Error e -> Error e
