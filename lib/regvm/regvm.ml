(** Front door for the register VM + SFI toolchain (the paper's
    "Omniware" technology).

    {[
      let p = Regvm.load_exn ~protection:Program.Write_jump image in
      let fn = Graft_gel.Ir.entry image.Link.prog "main" ~nargs:0 in
      Regvm.Machine.run p ~fn:(Result.get_ok fn) ~args:[||] ~fuel:1_000_000
    ]}

    [load] compiles the linked image, applies the SFI instrumentation
    pass for the requested protection level, and runs the load-time
    verifier, refusing code that is not correctly sandboxed. *)

module Isa = Isa
module Program = Program
module Compile = Compile
module Flow = Flow
module Sfi = Sfi
module Verify = Verify
module Machine = Machine
module Disasm = Disasm

(** [~elide:true] lets the SFI pass skip the masking triple for
    accesses whose address the {!Flow} interval analysis proves
    in-segment; the verifier proves each such access again from the
    instrumented code before accepting the program.

    [~bounded:true] (Graftgate mode) derives a bound for every loop at
    the IR level ({!Graft_analysis.Loopbound}) and then verifies with
    the bound derived again from the machine code's backward-branch
    windows; an underivable loop is a load error. *)
let load ?(protection = Program.Write_jump) ?(elide = false)
    ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t, string) result =
  match Graft_analysis.Loopbound.gate ~bounded image with
  | Error msg -> Error msg
  | Ok () -> (
      match
        Compile.compile image
          ~segment:(Sfi.segment_of_memory image.Graft_gel.Link.mem)
      with
      | exception Compile.Compile_error msg -> Error msg
      | exception Invalid_argument msg -> Error msg
      | p -> (
          match Sfi.instrument ~elide p ~protection with
          | exception Invalid_argument msg -> Error msg
          | p -> (
              match Verify.verify ~bounded p with
              | Ok () -> Ok p
              | Error msg -> Error msg)))

let load_exn ?protection ?elide ?bounded image =
  match load ?protection ?elide ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** (elided, total) counts of maskable access sites — stores, plus
    loads under [Full] protection — for the ablation report. In
    instrumented code every [St] is one site (masked through r1 or
    elided), and under [Full] every [Ld] likewise; an elided site is
    one that does not address through r1, which the verifier admits
    only when it proves the address in-segment. *)
let elision_stats (p : Program.t) : int * int =
  let full = p.Program.protection = Program.Full in
  let protected_ = p.Program.protection <> Program.Unprotected in
  let site (elided, total) r =
    ((if protected_ && r <> Isa.reg_sandbox then elided + 1 else elided),
     total + 1)
  in
  Array.fold_left
    (fun acc instr ->
      match instr with
      | Isa.St (rb, _, _) -> site acc rb
      | Isa.Ld (_, rs, _) when full -> site acc rs
      | _ -> acc)
    (0, 0) p.Program.code
