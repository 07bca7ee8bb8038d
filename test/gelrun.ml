(* The GEL engines' one call path, as the tests drive it. An entry point
   resolves once, by name and arity, in the IR the tier compiled
   ([Ir.entry]); the engine runs the index and raises the graft's
   fault, which [outcome] turns back into a value so that engines can
   be compared. A bad entry point fails the test: the suites that
   exercise one call [Ir.entry] themselves. *)

open Graft_gel

(* [name]'s index in [image]'s IR, for a call with [args]. *)
let fn (image : Link.image) name ~args =
  match Ir.entry image.Link.prog name ~nargs:(Array.length args) with
  | Ok fn -> fn
  | Error msg -> Alcotest.failf "bad entry: %s" msg

(* [run ()]'s result, or the fault it raised. *)
let outcome run =
  match run () with
  | v -> Ok v
  | exception Graft_mem.Fault.Fault f -> Error (`Fault f)

let interp image ~entry ~args ~fuel =
  outcome (fun () -> Interp.run image ~fn:(fn image entry ~args) ~args ~fuel)

(* [p] was loaded from [image]. *)
let vm image p ~entry ~args ~fuel =
  outcome (fun () ->
      Graft_stackvm.Vm.run p ~fn:(fn image entry ~args) ~args ~fuel)

let jit image t ~entry ~args ~fuel =
  outcome (fun () -> Graft_jit.Jit.run t ~fn:(fn image entry ~args) ~args ~fuel)

let machine image p ~entry ~args ~fuel =
  outcome (fun () ->
      Graft_regvm.Machine.run p ~fn:(fn image entry ~args) ~args ~fuel)
