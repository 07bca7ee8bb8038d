(* Cross-engine differential fuzzing: generate random well-typed GEL
   programs and require the reference AST interpreter, the stack
   bytecode VM, and the register VM (both SFI protection levels) to
   agree on the result and on the final global/array/graft-map state.

   Programs are generated so they cannot fault (array indices and map
   keys masked, or only ever assigned in-range values; divisors forced
   nonzero; loops bounded), so any divergence is a compiler or
   interpreter bug. Since every generated loop is the canonical
   counted shape, the statically checked stack tier, the JIT and the
   non-elided register VMs all load with [~bounded:true]: the
   loop-bound gate must admit everything the generator emits, and
   certification must not change semantics. *)

open Graft_util
open Graft_gel
open Graft_mem

(* ------------------------------------------------------------------ *)
(* Program generator.                                                  *)
(* ------------------------------------------------------------------ *)

type genv = {
  rng : Prng.t;
  buf : Buffer.t;
  mutable locals : string list;  (** readable: includes loop counters *)
  mutable assignable : string list;  (** never loop counters (termination) *)
  mutable fresh : int;
}

let p g fmt = Printf.ksprintf (Buffer.add_string g.buf) fmt

let rec gen_expr g depth =
  let atom () =
    match Prng.int g.rng 5 with
    | 0 -> p g "%d" (Prng.int g.rng 201 - 100)
    | 1 -> p g "a"
    | 2 -> p g "b"
    | 3 -> p g "g"
    | _ -> (
        match g.locals with
        | [] -> p g "%d" (Prng.int g.rng 50)
        | ls -> p g "%s" (List.nth ls (Prng.int g.rng (List.length ls))))
  in
  if depth <= 0 then atom ()
  else
    match Prng.int g.rng 11 with
    | 0 | 1 | 2 -> atom ()
    | 7 ->
        (* graft-map read with masked key: in range by construction *)
        p g "map_lookup(0, (";
        gen_expr g (depth - 1);
        p g ") & 7)"
    | 3 ->
        (* array read with masked index *)
        p g "arr[(";
        gen_expr g (depth - 1);
        p g ") & 7]"
    | 4 ->
        p g "(-(";
        gen_expr g (depth - 1);
        p g "))"
    | 5 ->
        (* guarded division/modulo *)
        let op = if Prng.bool g.rng then "/" else "%" in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s (((" op;
        gen_expr g (depth - 1);
        p g ") & 15) | 1))"
    | 6 ->
        (* bounded shift *)
        let op = [| "<<"; ">>"; ">>>" |].(Prng.int g.rng 3) in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s ((" op;
        gen_expr g (depth - 1);
        p g ") & 15))"
    | _ ->
        let op = [| "+"; "-"; "*"; "&"; "|"; "^" |].(Prng.int g.rng 6) in
        p g "((";
        gen_expr g (depth - 1);
        p g ") %s (" op;
        gen_expr g (depth - 1);
        p g "))"

let gen_cond g depth =
  let op = [| "<"; "<="; ">"; ">="; "=="; "!=" |].(Prng.int g.rng 6) in
  p g "(";
  gen_expr g depth;
  p g ") %s (" op;
  gen_expr g depth;
  p g ")"

let rec gen_stmt g depth =
  match Prng.int g.rng 7 with
  | 0 ->
      p g "g = ";
      gen_expr g depth;
      p g ";\n"
  | 5 ->
      (* graft-map write with masked key; update returns 1 on array
         maps, so fold it into [g] to keep the value observable *)
      p g "g = g + map_update(0, (";
      gen_expr g (depth - 1);
      p g ") & 7, ";
      gen_expr g depth;
      p g ");\n"
  | 1 ->
      p g "arr[(";
      gen_expr g (depth - 1);
      p g ") & 7] = ";
      gen_expr g depth;
      p g ";\n"
  | 2 when g.assignable <> [] ->
      let x =
        List.nth g.assignable (Prng.int g.rng (List.length g.assignable))
      in
      p g "%s = " x;
      gen_expr g depth;
      p g ";\n"
  | 3 when depth > 0 ->
      p g "if (";
      gen_cond g (depth - 1);
      p g ") {\n";
      gen_block g (depth - 1);
      p g "} else {\n";
      gen_block g (depth - 1);
      p g "}\n"
  | 4 when depth > 0 ->
      (* bounded loop over a fresh counter *)
      let v = Printf.sprintf "l%d" g.fresh in
      g.fresh <- g.fresh + 1;
      let bound = 1 + Prng.int g.rng 6 in
      p g "for (var %s = 0; %s < %d; %s = %s + 1) {\n" v v bound v v;
      (* the counter is in scope inside the loop *)
      let saved = g.locals in
      g.locals <- v :: g.locals;
      gen_block g (depth - 1);
      g.locals <- saved;
      p g "}\n"
  | _ ->
      p g "g = g + ";
      gen_expr g (max 0 (depth - 1));
      p g ";\n"

and gen_block g depth =
  let n = 1 + Prng.int g.rng 3 in
  for _ = 1 to n do
    gen_stmt g depth
  done

let gen_program seed =
  let g =
    {
      rng = Prng.create seed;
      buf = Buffer.create 1024;
      locals = [];
      assignable = [];
      fresh = 0;
    }
  in
  p g "extern fn map_lookup(int, int) : int;\n";
  p g "extern fn map_update(int, int, int) : int;\n";
  p g "var g : int = %d;\narray arr[8];\n" (Prng.int g.rng 100);
  p g "fn main(a : int, b : int) : int {\n";
  let nlocals = 1 + Prng.int g.rng 3 in
  for i = 0 to nlocals - 1 do
    let x = Printf.sprintf "x%d" i in
    p g "var %s = " x;
    gen_expr g 1;
    p g ";\n";
    g.locals <- x :: g.locals;
    g.assignable <- x :: g.assignable
  done;
  let nstmts = 2 + Prng.int g.rng 6 in
  for _ = 1 to nstmts do
    gen_stmt g 2
  done;
  p g "return ((g + arr[0]) ^ (arr[3] + arr[7])) + ";
  gen_expr g 1;
  p g ";\n}\n";
  Buffer.contents g.buf

(* Programs whose counted loops index [arr] and map 0 with unmasked
   loop-carried locals [k0..]. An index local is only ever assigned a
   constant in [0,7] or the counter of an enclosing loop of at most 8
   rounds, under one-armed ifs, if/else arms of different lengths and
   nested loops. Every index is in range, and the verifier's interval
   analysis proves most of them from the bytecode. Conditions test
   compound expressions, which it does not refine, so no branch is
   provably dead. [gen_program] masks every index and never builds
   this shape. *)
let gen_carried_program seed =
  let rng = Prng.create seed in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  let nidx = 1 + Prng.int rng 3 in
  let idx () = Printf.sprintf "k%d" (Prng.int rng nidx) in
  (* [counters] are the enclosing loops' counters, each in [0,7]. *)
  let index counters =
    if counters <> [] && Prng.bool rng then pick counters else idx ()
  in
  let cond () =
    Printf.sprintf "(%s %s g) %s %d"
      [| "a"; "b" |].(Prng.int rng 2)
      [| "+"; "^" |].(Prng.int rng 2)
      [| "<"; "<="; ">"; ">="; "=="; "!=" |].(Prng.int rng 6)
      (Prng.int rng 21 - 10)
  in
  let fresh = ref 0 in
  let rec loop counters bound depth =
    let v = Printf.sprintf "l%d" !fresh in
    incr fresh;
    p "for (var %s = 0; %s < %d; %s = %s + 1) {\n" v v bound v v;
    block (v :: counters) depth;
    p "}\n"
  and stmt counters depth =
    match Prng.int rng 8 with
    | 0 -> p "g = g + arr[%s];\n" (index counters)
    | 1 -> p "g = g + map_lookup(0, %s);\n" (index counters)
    | 2 -> p "arr[%s] = g + a;\n" (index counters)
    | 3 -> p "g = g + map_update(0, %s, b);\n" (index counters)
    | 4 when depth > 0 ->
        p "if (%s) {\n" (cond ());
        block counters (depth - 1);
        p "}\n"
    | 5 when depth > 0 ->
        p "if (%s) {\n" (cond ());
        block counters (depth - 1);
        p "} else {\n";
        block counters (depth - 1);
        p "}\n"
    | 6 when depth > 0 -> loop counters (1 + Prng.int rng 8) (depth - 1)
    | _ ->
        let v =
          if counters <> [] && Prng.bool rng then pick counters
          else string_of_int (Prng.int rng 8)
        in
        p "%s = %s;\n" (idx ()) v
  and block counters depth =
    for _ = 1 to 1 + Prng.int rng 3 do
      stmt counters depth
    done
  in
  p "extern fn map_lookup(int, int) : int;\n";
  p "extern fn map_update(int, int, int) : int;\n";
  p "var g : int = %d;\narray arr[8];\n" (Prng.int rng 100);
  p "fn main(a : int, b : int) : int {\n";
  for i = 0 to nidx - 1 do
    p "var k%d = %d;\n" i (Prng.int rng 8)
  done;
  for _ = 1 to 1 + Prng.int rng 2 do
    loop [] 8 2
  done;
  p "return g + arr[%s];\n}\n" (idx ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Engines.                                                            *)
(* ------------------------------------------------------------------ *)

type engine = {
  ename : string;
  run : string -> args:int array -> (int * int array, string) result;
      (** result value and final state (global g + arr contents) *)
}

let fuel = 50_000_000

(* Graftgate dimension: every generated program declares the map
   helpers and works over an 8-entry array map (map 0), keys masked
   & 7 so access never faults. Each engine run gets a fresh map, and
   the map's final contents join the global/array state in the
   differential comparison — so every engine's helper calls must leave
   byte-identical kernel state. *)
let fuzz_maps () = [| Graft_kernel.Graftmap.create_array ~name:"fuzz" 8 |]

let map_hosts = Graft_core.Runners.map_hosts

let build_image ?(optimize = false) ?(hosts = []) src =
  let prog =
    match Gel.compile ~optimize src with
    | Ok p -> p
    | Error e -> failwith ("fuzz program does not compile: " ^ Srcloc.to_string e)
  in
  let mem = Memory.create 1024 in
  match Link.link prog ~mem ~shared:[] ~hosts with
  | Ok image -> image
  | Error m -> failwith ("fuzz program does not link: " ^ m)

let final_state maps (image : Link.image) =
  let cells = Memory.cells image.Link.mem in
  let g = cells.(image.Link.global_base) in
  let arr = Array.init 8 (fun i -> cells.(image.Link.arr_base.(0) + i)) in
  let map = Array.init 8 (fun k -> Graft_kernel.Graftmap.lookup maps.(0) k) in
  Array.concat [ [| g |]; arr; map ]

let interp_engine ?(optimize = false) name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~optimize ~hosts:(map_hosts maps) src in
        match Gelrun.interp image ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

let stackvm_engine ?(optimize = false) name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~optimize ~hosts:(map_hosts maps) src in
        let prog = Graft_stackvm.Stackvm.load_exn image in
        match Gelrun.vm image prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

(* The optimized bytecode tier: peephole-fused program image run by the
   same dispatch loop. Must be observably identical to the plain tier,
   including fault identity and fuel accounting. *)
let stackvm_opt_engine ?(optimize = false) name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~optimize ~hosts:(map_hosts maps) src in
        let prog = Graft_stackvm.Stackvm.load_opt_exn image in
        match Gelrun.vm image prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

(* The statically checked tier: the load-time verifier's interval
   analysis elides bounds and divisor checks it proves redundant. Must
   be observably identical to the checked tier. *)
let stackvm_static_engine name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_stackvm.Stackvm.load_static_exn ~bounded:true image in
        match Gelrun.vm image prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

(* The closure-threaded JIT tier: compiled from the same statically
   checked bytecode as bytecode-static, so it must agree with every
   other engine on result, state, fuel cut points and fault class. *)
let jit_engine name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let t = Graft_jit.Jit.load_exn ~bounded:true image in
        match Gelrun.jit image t ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

let regvm_engine ?elide ?bounded ~protection name =
  {
    ename = name;
    run =
      (fun src ~args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_regvm.Regvm.load_exn ~protection ?elide ?bounded image in
        match Gelrun.machine image prog ~entry:"main" ~args ~fuel with
        | Ok v -> Ok (v, final_state maps image)
        | Error (`Fault f) -> Error (Fault.to_string f));
  }

let engines =
  [
    interp_engine "ast-interp";
    interp_engine ~optimize:true "ast-interp+opt";
    stackvm_engine "bytecode-vm";
    stackvm_engine ~optimize:true "bytecode-vm+opt";
    stackvm_opt_engine "bytecode-peep";
    stackvm_opt_engine ~optimize:true "bytecode-peep+opt";
    stackvm_static_engine "bytecode-static";
    jit_engine "jit";
    regvm_engine ~bounded:true ~protection:Graft_regvm.Program.Write_jump
      "regvm-wj";
    regvm_engine ~bounded:true ~protection:Graft_regvm.Program.Full
      "regvm-full";
    regvm_engine ~elide:true ~protection:Graft_regvm.Program.Write_jump
      "regvm-wj-elided";
    regvm_engine ~elide:true ~protection:Graft_regvm.Program.Full
      "regvm-full-elided";
  ]

(* ------------------------------------------------------------------ *)
(* The fault-plan dimension (Graftjail).                               *)
(*                                                                     *)
(* Generated programs get two armed fault sites woven into a loop:     *)
(* each site counts its own visits and commits a seeded fault class    *)
(* when its trigger count is reached. Execution order is              *)
(* deterministic, so every engine must report the same first-firing    *)
(* fault class — and, for faults at a deterministic site (not fuel     *)
(* exhaustion, whose cut point depends on each engine's accounting),   *)
(* identical memory at the fault.                                      *)
(* ------------------------------------------------------------------ *)

let fault_fuel = 200_000

(* Fault statements built on [zz], a runtime zero computed from the
   arguments so neither the optimizer nor the static verifier can
   decide them at compile time. *)
let fault_stmt = function
  | "oob-write" -> "arr[zz + 99] = 1;\n"
  | "oob-read" -> "g = arr[zz - 3];\n"
  | "div-zero" -> "g = 17 / zz;\n"
  | "fuel" -> "while (zz == 0) { g = g + 1; }\n"
  | "map-oob-read" -> "g = map_lookup(0, zz + 99);\n"
  | "map-oob-write" -> "g = map_update(0, zz - 5, 1);\n"
  | c -> failwith ("unknown fault class " ^ c)

(* Map misuse surfaces as the kernel object's own out-of-bounds fault,
   whichever engine's helper call committed it. *)
let fault_name_of_class = function
  | "map-oob-read" -> "oob-read"
  | "map-oob-write" -> "oob-write"
  | c -> c

(* Returns the program and the class of the fault that must fire
   first: site 1 runs before site 2 within an iteration, so on equal
   triggers site 1 wins. *)
let gen_faulty_program seed classes =
  let rng = Prng.create seed in
  let c1 = classes.(Prng.int rng (Array.length classes)) in
  let c2 = classes.(Prng.int rng (Array.length classes)) in
  let t1 = 1 + Prng.int rng 12 in
  let t2 = 1 + Prng.int rng 12 in
  let g =
    { rng; buf = Buffer.create 512; locals = []; assignable = []; fresh = 0 }
  in
  p g "extern fn map_lookup(int, int) : int;\n";
  p g "extern fn map_update(int, int, int) : int;\n";
  p g "var g : int = %d;\narray arr[8];\n" (Prng.int rng 100);
  p g "fn main(a : int, b : int) : int {\n";
  p g "var zz = a - a;\nvar inj1 = 0;\nvar inj2 = 0;\n";
  for i = 0 to 1 do
    let x = Printf.sprintf "x%d" i in
    p g "var %s = " x;
    gen_expr g 1;
    p g ";\n";
    g.locals <- x :: g.locals;
    g.assignable <- x :: g.assignable
  done;
  p g "for (var i = 0; i < 16; i = i + 1) {\n";
  p g "inj1 = inj1 + 1;\nif (inj1 == %d) {\n%s} else { g = g + 0; }\n" t1
    (fault_stmt c1);
  gen_stmt g 1;
  p g "inj2 = inj2 + 1;\nif (inj2 == %d) {\n%s} else { g = g + 0; }\n" t2
    (fault_stmt c2);
  p g "}\nreturn g;\n}\n";
  (Buffer.contents g.buf, if t1 <= t2 then c1 else c2)

let fault_result = function
  | Ok v -> Printf.sprintf "ok:%d" v
  | Error (`Fault f) -> Fault.class_name f

(* Engines that trap every fault class with a checked fault: the AST
   interpreter and all three stack-bytecode tiers. *)
let checked_fault_engines =
  (* Every engine reaches the map through the helper host calls: the
     injected misuse must class identically on each. *)
  let stack load run name =
    ( name,
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let r = run image (load image) ~entry:"main" ~args ~fuel:fault_fuel in
        (fault_result r, final_state maps image) )
  in
  [
    ( "ast-interp",
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let r = Gelrun.interp image ~entry:"main" ~args ~fuel:fault_fuel in
        (fault_result r, final_state maps image) );
    stack Graft_stackvm.Stackvm.load_exn Gelrun.vm "bytecode-vm";
    stack Graft_stackvm.Stackvm.load_opt_exn Gelrun.vm "bytecode-peep";
    stack Graft_stackvm.Stackvm.load_static_exn Gelrun.vm "bytecode-static";
    stack Graft_jit.Jit.load_exn Gelrun.jit "jit";
  ]

(* The register VMs mask out-of-bounds accesses instead of trapping
   them (that is their protection model), so they join the comparison
   only for the classes every engine traps identically. *)
let all_fault_engines =
  let reg protection name =
    ( name,
      fun src args ->
        let maps = fuzz_maps () in
        let image = build_image ~hosts:(map_hosts maps) src in
        let prog = Graft_regvm.Regvm.load_exn ~protection image in
        let r =
          Gelrun.machine image prog ~entry:"main" ~args ~fuel:fault_fuel
        in
        (fault_result r, final_state maps image) )
  in
  checked_fault_engines
  @ [
      reg Graft_regvm.Program.Write_jump "regvm-wj";
      reg Graft_regvm.Program.Full "regvm-full";
    ]

let run_fault_plan ~engines ~classes seed a =
  let src, expected = gen_faulty_program seed classes in
  let args = [| a; a + 1 |] in
  let expected = fault_name_of_class expected in
  let results = List.map (fun (n, run) -> (n, run src args)) engines in
  List.iter
    (fun (n, (cls, _)) ->
      if cls <> expected then
        Alcotest.failf
          "seed %Ld engine %s: expected first fault %s, got %s\n%s" seed n
          expected cls src)
    results;
  (* A fault at a deterministic site leaves identical memory; fuel
     exhaustion cuts each engine at its own accounting boundary. *)
  if expected <> "fuel" then
    match results with
    | (n0, (_, s0)) :: rest ->
        List.iter
          (fun (n, (_, s)) ->
            if s <> s0 then
              Alcotest.failf
                "seed %Ld: %s and %s fault on %s with different state\n\
                 %s=[%s]\n%s=[%s]\n%s"
                seed n0 n expected n0
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int s0)))
                n
                (String.concat ";" (Array.to_list (Array.map string_of_int s)))
                src)
          rest
    | [] -> assert false

(* Every engine — including the masking register VMs — traps map
   misuse: the kernel's map object checks the key, so an SFI store
   mask never sees it. *)
let trapped_classes = [| "div-zero"; "fuel"; "map-oob-read"; "map-oob-write" |]

let checked_classes =
  [| "oob-write"; "oob-read"; "div-zero"; "map-oob-read"; "map-oob-write" |]

let test_fault_plan_corpus () =
  for i = 1 to 40 do
    let seed = Int64.of_int (i * 6581) in
    run_fault_plan ~engines:all_fault_engines ~classes:trapped_classes seed i;
    run_fault_plan ~engines:checked_fault_engines ~classes:checked_classes
      seed (-i)
  done

let prop_fault_plans_agree =
  QCheck.Test.make
    ~name:"all engines agree on the first-firing injected fault" ~count:100
    QCheck.(pair int64 (int_range (-1000) 1000))
    (fun (seed, a) ->
      run_fault_plan ~engines:all_fault_engines ~classes:trapped_classes seed
        a;
      true)

let prop_fault_plans_checked_agree =
  QCheck.Test.make
    ~name:"checked engines agree on injected memory faults" ~count:100
    QCheck.(pair int64 (int_range (-1000) 1000))
    (fun (seed, a) ->
      run_fault_plan ~engines:checked_fault_engines ~classes:checked_classes
        seed a;
      true)

(* ------------------------------------------------------------------ *)
(* The differential property.                                          *)
(* ------------------------------------------------------------------ *)

(* Run [src] on every engine; [label] names the program in a failure. *)
let run_src ~label src a b =
  let results =
    List.map (fun e -> (e.ename, e.run src ~args:[| a; b |])) engines
  in
  match results with
  | (_, reference) :: rest ->
      List.iter
        (fun (name, r) ->
          if r <> reference then
            Alcotest.failf
              "engine %s diverges on %s args (%d, %d)\n%s\nref=%s got=%s"
              name label a b src
              (match reference with
              | Ok (v, _) -> string_of_int v
              | Error m -> "fault " ^ m)
              (match r with
              | Ok (v, _) -> string_of_int v
              | Error m -> "fault " ^ m))
        rest;
      (* Generated programs must never fault. *)
      (match reference with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s faulted: %s\n%s" label m src)
  | [] -> assert false

let run_all seed a b =
  run_src ~label:(Printf.sprintf "seed %Ld" seed) (gen_program seed) a b

let test_fixed_corpus () =
  (* A deterministic sweep: 60 programs x 2 argument pairs. *)
  for i = 1 to 60 do
    let seed = Int64.of_int (i * 7919) in
    run_all seed i (1000 - i);
    run_all seed (-i) (i * 13)
  done;
  (* Regression seeds caught by the random property in the past. *)
  run_all 1254803352612576772L 0 1

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines agree on random programs" ~count:120
    QCheck.(triple int64 (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (seed, a, b) ->
      run_all seed a b;
      true)

let test_generator_compiles () =
  (* The generator itself must always produce valid GEL. *)
  for i = 1000 to 1100 do
    let src = gen_program (Int64.of_int i) in
    match Gel.compile src with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "seed %d produced invalid GEL: %s\n%s" i
          (Srcloc.to_string e) src
  done

(* Load [src] on the statically checked tier and the JIT, both with
   [~bounded:true], and return the static tier's program. The static
   loader analyses the program once and does not verify what it
   returns; here [Verify.verify] must accept it, claims and all. *)
let load_static_and_jit ~label src =
  let load name loader =
    let maps = fuzz_maps () in
    match loader (build_image ~hosts:(map_hosts maps) src) with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%s: %s rejected: %s\n%s" label name msg src
  in
  let prog =
    load "bytecode-static" (Graft_stackvm.Stackvm.load_static ~bounded:true)
  in
  (match Graft_stackvm.Verify.verify ~bounded:true prog with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s: the verifier rejects the static tier's own \
                      elisions: %s\n%s" label msg src);
  ignore (load "jit" (Graft_jit.Jit.load ~bounded:true));
  prog

(* A deterministic sweep of the loaders alone: every generated program
   loads on the statically checked tier and the JIT, and the static
   tier's program, unchecked opcodes and claims included, passes the
   verifier on its own. *)
let test_generator_loads () =
  for i = 0 to 1999 do
    ignore
      (load_static_and_jit ~label:(Printf.sprintf "seed %d" i)
         (gen_program (Int64.of_int i)))
  done

(* Unmasked loop-carried indices: every program loads on both tiers,
   and the first 40 run alike on every engine. The analysis widens a
   local that keeps growing past a loop's second round, so some sites
   stay checked, but most (about 87%) are elided: the verifier really
   derives unmasked loop-carried ranges here. *)
let test_carried_indices () =
  let elided = ref 0 and total = ref 0 in
  for i = 0 to 299 do
    let label = Printf.sprintf "carried seed %d" i in
    let src = gen_carried_program (Int64.of_int i) in
    let e, t =
      Graft_stackvm.Stackvm.elision_stats (load_static_and_jit ~label src)
    in
    elided := !elided + e;
    total := !total + t;
    if i < 40 then run_src ~label src i (7 - i)
  done;
  if !elided * 4 < !total * 3 then
    Alcotest.failf "only %d of %d check sites elided" !elided !total

(* One legality rule decides both sides: flip any one check site of a
   fully checked program to its unchecked twin, and the verifier
   accepts the result exactly when its own elision pass flips that
   site. Returns (flips accepted, flips tried). *)
let flips_agree ~label (p : Graft_stackvm.Program.t) =
  let module P = Graft_stackvm.Program in
  let module Op = Graft_stackvm.Opcode in
  let module V = Graft_stackvm.Verify in
  match V.elide p with
  | Error msg -> Alcotest.failf "%s: the verifier rejects the checked program: %s" label msg
  | Ok (elided, _) ->
      let accepted = ref 0 and tried = ref 0 in
      Array.iteri
        (fun pc op ->
          match Op.check_site op with
          | Some (checked, unchecked) when op = checked ->
              let code = Array.copy p.P.code in
              code.(pc) <- unchecked;
              let admits = V.verify { p with P.code } = Ok () in
              let elides = elided.P.code.(pc) = unchecked in
              if admits <> elides then
                Alcotest.failf "%s: pc %d (%s): verify %s the flip, elide %s it"
                  label pc (Op.to_string op)
                  (if admits then "accepts" else "rejects")
                  (if elides then "makes" else "does not make");
              incr tried;
              if admits then incr accepted
          | _ -> ())
        p.P.code;
      (!accepted, !tried)

let test_flips_agree () =
  let module Gs = Graft_grafts.Gel_sources in
  let module R = Graft_core.Runners in
  let module T = Graft_core.Technology in
  let module M = Graft_kernel.Graftmap in
  let total = ref (0, 0) in
  let add (a, t) = total := (fst !total + a, snd !total + t) in
  List.iter
    (fun (label, src, windows, maps) ->
      let env = R.gel_env ~hosts:(R.map_hosts maps) T.Bytecode_vm src windows in
      match Graft_stackvm.Stackvm.load env.R.image with
      | Ok p -> add (flips_agree ~label p)
      | Error msg -> Alcotest.failf "%s: %s" label msg)
    [
      ("md5", Gs.md5 ~data_cells:2048, [ ("data", 2048, true); ("digest", 16, true) ], [||]);
      ("evict", Gs.evict ~heap_cells:256, [ ("heap", 256, false) ], [||]);
      ("logdisk", Gs.logdisk ~nblocks:64, [], [||]);
      ( "demux",
        Gs.demux ~window_cells:2048 ~protocol:6 ~marker:0x42,
        [ ("pkt", 2048, false) ],
        [| M.create_array ~name:"conn" 64 |] );
      ("hotset", Gs.hotset, [], [| M.create_lru ~name:"hotset" 64 |]);
      ( "packet filter",
        Gs.packet_filter ~window_cells:2048 ~protocol:6 ~port:80,
        [ ("pkt", 2048, false) ],
        [||] );
    ];
  for i = 0 to 199 do
    List.iter
      (fun (label, gen) ->
        let src = gen (Int64.of_int i) in
        let maps = fuzz_maps () in
        match
          Graft_stackvm.Stackvm.load (build_image ~hosts:(map_hosts maps) src)
        with
        | Ok p -> add (flips_agree ~label:(Printf.sprintf "%s seed %d" label i) p)
        | Error msg -> Alcotest.failf "%s seed %d: %s\n%s" label i msg src)
      [ ("plain", gen_program); ("carried", gen_carried_program) ]
  done;
  (* Both answers occur, so neither side can pass by always saying
     one thing. *)
  let accepted, tried = !total in
  if accepted = 0 || accepted = tried then
    Alcotest.failf "%d of %d flips accepted" accepted tried

(* ------------------------------------------------------------------ *)
(* Entry point.                                                         *)
(* ------------------------------------------------------------------ *)

(* Failure messages above always print the offending seed; `--seed N`
   (or `--seed=N`) replays that one generated program through every
   engine in isolation, printing the source first so a divergence can
   be minimized by hand. *)
let parse_seed_arg () =
  let rec scan acc = function
    | [] -> (None, List.rev acc)
    | "--seed" :: n :: rest -> (Some n, List.rev_append acc rest)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--seed=" ->
        (Some (String.sub a 7 (String.length a - 7)), List.rev_append acc rest)
    | a :: rest -> scan (a :: acc) rest
  in
  scan [] (Array.to_list Sys.argv)

let replay seed_str =
  let seed =
    match Int64.of_string_opt seed_str with
    | Some s -> s
    | None ->
        Printf.eprintf "bad --seed %S (want an int64)\n" seed_str;
        exit 2
  in
  print_string (gen_program seed);
  List.iter (fun (a, b) -> run_all seed a b) [ (0, 1); (17, 983); (-42, 546) ];
  Printf.printf "seed %Ld: all engines agree\n" seed

let () =
  match parse_seed_arg () with
  | Some n, _ -> replay n
  | None, argv ->
      let argv = Array.of_list argv in
      let qc = List.map QCheck_alcotest.to_alcotest in
      Alcotest.run ~argv "graft_fuzz"
        [
          ( "differential",
            [
              Alcotest.test_case "generator compiles" `Quick
                test_generator_compiles;
              Alcotest.test_case "generator seeds 0-1999 load" `Quick
                test_generator_loads;
              Alcotest.test_case "loop-carried indices" `Quick
                test_carried_indices;
              Alcotest.test_case "verifier admits exactly the elider's flips"
                `Quick test_flips_agree;
              Alcotest.test_case "fixed corpus" `Quick test_fixed_corpus;
            ]
            @ qc [ prop_engines_agree ] );
          ( "fault-plans",
            [
              Alcotest.test_case "fixed corpus" `Quick test_fault_plan_corpus;
            ]
            @ qc [ prop_fault_plans_agree; prop_fault_plans_checked_agree ] );
        ]
