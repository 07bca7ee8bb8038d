(** Front door for the stack bytecode VM (the paper's "Java"
    technology): compile a linked GEL image to bytecode, verify it, and
    execute it. The verifier judges the bytecode alone: check elisions
    and loop bounds are derived from the code at load, never shipped
    beside it.

    {[
      let prog = Stackvm.load_exn image in
      let fn = Graft_gel.Ir.entry image.Link.prog "main" ~nargs:0 in
      Stackvm.Vm.run prog ~fn:(Result.get_ok fn) ~args:[||] ~fuel:1_000_000
    ]} *)

module Opcode = Opcode
module Program = Program
module Compile = Compile
module Peephole = Peephole
module Verify = Verify
module Vm = Vm
module Disasm = Disasm

(* Graftgate front checks shared by every loader: helper-named externs
   must match the typed helper table before anything is compiled, and
   bounded loading refuses loops whose bound the IR-level derivation
   cannot find (raised as [Invalid_argument] by [Compile ~bounds]).
   [admit] is the verifier's last word on the compiled program. *)
let gate ~admit image k =
  match Graft_analysis.Helpers.check_externs image.Graft_gel.Link.prog with
  | Error msg -> Error msg
  | Ok () -> (
      match k () with
      | p -> admit p
      | exception Invalid_argument msg -> Error msg)

let verified ~bounded p = Result.map (fun () -> p) (Verify.verify ~bounded p)

(** Compile and verify a linked image; refuses unverifiable code as the
    kernel's loader would. [bounded] switches on Graftgate loading,
    where the verifier admits a loop only if it derives the loop's
    bound from the bytecode. *)
let load ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t, string) result =
  gate ~admit:(verified ~bounded) image (fun () ->
      Compile.compile ~bounds:bounded image)

let load_exn ?bounded image =
  match load ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** The optimizing tier's loader: compile, fuse superinstructions
    ({!Peephole}), then verify the fused code — the safety claim rests
    on load-time verification of the program that actually runs, not on
    trusting the optimizer. That includes [bounded]: {!Peephole}
    leaves the counted-loop windows unfused, so the bound derivation
    runs on the shipped code like every other check. *)
let load_opt ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t, string) result =
  gate ~admit:(verified ~bounded) image (fun () ->
      Peephole.optimize ~bounded (Compile.compile ~bounds:bounded image))

let load_opt_exn ?bounded image =
  match load_opt ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** The statically-checked tier's loader (the paper's "Modula-3 + static
    checks" column): compile fully checked, then let the verifier elide
    ({!Verify.elide}). Its interval analysis derives every check site's
    operand range from the bytecode, and each site whose range is
    provably legal becomes its unchecked twin. No analysis outside the
    verifier decides an elision, and nothing but the code records one.
    The program comes with what the verifier derived, which the JIT's
    block plan reads. *)
let load_static_derived ?(bounded = false) (image : Graft_gel.Link.image) :
    (Program.t * Verify.derived, string) result =
  gate ~admit:(Verify.elide ~bounded) image (fun () ->
      Compile.compile ~bounds:bounded image)

let load_static ?bounded image =
  Result.map fst (load_static_derived ?bounded image)

let load_static_exn ?bounded image =
  match load_static ?bounded image with
  | Ok p -> p
  | Error msg -> failwith msg

(** (elided, total) counts of check sites — array accesses and
    divisions — in a program, for the [-O]/[--dump] report and
    the elision-rate experiments. *)
let elision_stats (p : Program.t) : int * int =
  Array.fold_left
    (fun (elided, total) op ->
      if Opcode.twin op = None then (elided, total)
      else ((if Opcode.is_unchecked op then elided + 1 else elided), total + 1))
    (0, 0) p.Program.code
