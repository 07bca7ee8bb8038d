(* Quickstart: write a kernel extension ("graft") in GEL once, run it
   under several extension technologies, and watch the safety story —
   out-of-bounds grafts fault cleanly and runaway grafts are preempted.

   Run with: dune exec examples/quickstart.exe *)

open Graft_gel
open Graft_mem

(* A tiny Prioritization-style graft: score candidates and return the
   index of the best one. *)
let source =
  {|
shared array scores[16];

fn best(n : int) : int {
  var best_i = 0;
  var best_v = scores[0];
  for (var i = 1; i < n; i = i + 1) {
    if (scores[i] > best_v) { best_v = scores[i]; best_i = i; }
  }
  return best_i;
}

fn spin() : int {
  while (true) { }
  return 0;
}

fn wild(i : int) : int {
  return scores[i];
}
|}

let () =
  (* 1. Compile and link the graft into a fresh power-of-two memory,
     with the kernel-shared window mapped read-only. *)
  let prog = Gel.compile_exn source in
  let mem = Memory.create 1024 in
  let window = Memory.alloc mem ~name:"scores" ~len:16 ~perm:Memory.perm_ro in
  Memory.blit_in mem window [| 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8 |];
  let image =
    match Link.link prog ~mem ~shared:[ ("scores", window) ] ~hosts:[] with
    | Ok image -> image
    | Error msg -> failwith msg
  in

  (* 2. Resolve each entry point once, by name and arity: the index
     enters every technology, since each compiles function i of the IR
     to its function i. A graft's fault raises [Fault.Fault]. *)
  let entry name ~nargs = Result.get_ok (Ir.entry prog name ~nargs) in
  let best = entry "best" ~nargs:1
  and spin = entry "spin" ~nargs:0
  and wild = entry "wild" ~nargs:1 in

  (* 3. The same graft, three execution technologies. *)
  print_endline "-- best(12) under three technologies --";
  let fuel = 100_000 in

  Printf.printf "  AST interpreter      : index %d\n"
    (Interp.run image ~fn:best ~args:[| 12 |] ~fuel);

  let bytecode = Graft_stackvm.Stackvm.load_exn image in
  Printf.printf "  bytecode VM (Java)   : index %d\n"
    (Graft_stackvm.Vm.run bytecode ~fn:best ~args:[| 12 |] ~fuel);

  let sfi = Graft_regvm.Regvm.load_exn image in
  let session = Graft_regvm.Machine.create_session sfi in
  let v = Graft_regvm.Machine.run_session session ~fn:best ~args:[| 12 |] ~fuel in
  Printf.printf "  register VM + SFI    : index %d (%d instructions)\n" v
    (Graft_regvm.Machine.instructions session);

  (* 4. Safety: a wild access faults instead of corrupting the kernel. *)
  print_endline "-- wild(9999): out-of-bounds access --";
  (match Interp.run image ~fn:wild ~args:[| 9999 |] ~fuel with
  | exception Fault.Fault f ->
      Printf.printf "  contained: %s\n" (Fault.to_string f)
  | _ -> assert false);

  (* 5. Safety: an infinite loop is preempted when its fuel runs out. *)
  print_endline "-- spin(): runaway graft --";
  (match Graft_stackvm.Vm.run bytecode ~fn:spin ~args:[||] ~fuel:5000 with
  | exception Fault.Fault Fault.Fuel_exhausted ->
      print_endline "  preempted: CPU quantum exhausted"
  | _ -> assert false);

  (* 6. The kernel carries on: the healthy entry point still works. *)
  Printf.printf "-- kernel survived; best(12) is still %d --\n"
    (Interp.run image ~fn:best ~args:[| 12 |] ~fuel)
