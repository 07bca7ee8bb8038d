(* Tests for graft_stackvm: compiler, verifier, and interpreter, with
   differential checks against the GEL reference interpreter. *)

open Graft_gel
open Graft_mem
open Graft_stackvm

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let compile_ok src =
  match Gel.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "compile error: %s" (Srcloc.to_string e)

(* Build two independent images of the same program so the interpreter
   and the VM do not share mutable globals. *)
let fresh_image ?hosts src =
  match Link.link_fresh ?hosts (compile_ok src) with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link error: %s" msg

let vm_run ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) ?hosts src =
  let image = fresh_image ?hosts src in
  let p = Stackvm.load_exn image in
  match Gelrun.vm image p ~entry ~args ~fuel with
  | Ok v -> v
  | Error (`Fault f) -> Alcotest.failf "vm fault: %s" (Fault.to_string f)

let vm_fault ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) src =
  let image = fresh_image src in
  let p = Stackvm.load_exn image in
  match Gelrun.vm image p ~entry ~args ~fuel with
  | Ok v -> Alcotest.failf "expected fault, got %d" v
  | Error (`Fault f) -> f

(* Differential: run [entry args] through both engines, expect equal. *)
let both ?(entry = "main") ?(args = [||]) ?(fuel = 50_000_000) src =
  let ref_image = fresh_image src in
  let ref_result = Gelrun.interp ref_image ~entry ~args ~fuel in
  let vm_image = fresh_image src in
  let p = Stackvm.load_exn vm_image in
  let vm_result = Gelrun.vm vm_image p ~entry ~args ~fuel in
  match (ref_result, vm_result) with
  | Ok a, Ok b ->
      if a <> b then Alcotest.failf "interp=%d vm=%d" a b;
      a
  | Error (`Fault fa), Error (`Fault fb) ->
      (* Same fault class is enough; addresses may differ. *)
      let tag f =
        match f with
        | Fault.Out_of_bounds _ -> "oob"
        | Fault.Protection _ -> "prot"
        | Fault.Division_by_zero -> "div"
        | Fault.Fuel_exhausted -> "fuel"
        | Fault.Stack_overflow -> "stack"
        | other -> Fault.to_string other
      in
      if tag fa <> tag fb then
        Alcotest.failf "interp fault %s, vm fault %s" (Fault.to_string fa)
          (Fault.to_string fb);
      min_int
  | Ok a, Error (`Fault f) ->
      Alcotest.failf "interp=%d but vm faulted: %s" a (Fault.to_string f)
  | Error (`Fault f), Ok b ->
      Alcotest.failf "interp faulted (%s) but vm=%d" (Fault.to_string f) b
  | _ -> Alcotest.fail "bad entry in one of the engines"

let check_int = Alcotest.(check int)

(* ---------- basic execution ---------- *)

let test_arith () = check_int "1+2*3" 7 (vm_run "fn main() : int { return 1 + 2 * 3; }")

let test_factorial () =
  check_int "10!" 3628800
    (vm_run ~entry:"fact" ~args:[| 10 |]
       "fn fact(n : int) : int { if (n <= 1) { return 1; } return n * fact(n - 1); }")

let test_fib () =
  check_int "fib 20" 6765
    (vm_run ~entry:"fib" ~args:[| 20 |]
       "fn fib(n : int) : int {\n\
        var a = 0; var b = 1;\n\
        for (var i = 0; i < n; i = i + 1) { var t = a + b; a = b; b = t; }\n\
        return a;\n\
        }")

let test_word_ops () =
  check_int "word wrap" 0
    (vm_run "fn main() : int { var w : word = 0xFFFFFFFF; return int(w + 1); }");
  check_int "word rot" 0x80000000
    (vm_run
       "fn main() : int { var x : word = 1; var n = 31;\n\
        return int((x << n) | (x >>> (32 - n))); }")

let test_arrays () =
  check_int "array sum" 60
    (vm_run
       "array a[3];\n\
        fn main() : int { a[0] = 10; a[1] = 20; a[2] = 30;\n\
        return a[0] + a[1] + a[2]; }")

let test_array_initializer () =
  check_int "init" 0xef
    (vm_run
       "array t[4] : word = { 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476 };\n\
        fn main() : int { return int(t[1] >> 24); }")

let test_globals () =
  check_int "globals" 103
    (vm_run
       "var counter : int = 100;\n\
        fn bump() { counter = counter + 1; }\n\
        fn main() : int { bump(); bump(); bump(); return counter; }")

let test_break_continue () =
  check_int "break/continue" 25
    (vm_run
       "fn main() : int {\n\
        var sum = 0;\n\
        for (var i = 0; i < 100; i = i + 1) {\n\
        if (i % 2 == 0) { continue; }\n\
        if (i > 10) { break; }\n\
        sum = sum + i;\n\
        }\n\
        return sum;\n\
        }")

let test_short_circuit () =
  check_int "sc and" 2
    (vm_run
       "array a[4];\n\
        fn main() : int { if (false && a[9] == 1) { return 1; } return 2; }");
  check_int "sc or" 1
    (vm_run
       "array a[4];\n\
        fn main() : int { if (true || a[9] == 1) { return 1; } return 2; }")

let test_extern () =
  let hosts = [ { Link.hname = "twice"; hfn = (fun a i -> 2 * a.(i)) } ] in
  check_int "extern" 14
    (vm_run ~hosts
       "extern fn twice(int) : int;\nfn main() : int { return twice(7); }")

let test_void_fn_call_stmt () =
  check_int "void call" 5
    (vm_run
       "var g : int = 0;\n\
        fn set5() { g = 5; }\n\
        fn main() : int { set5(); return g; }")

(* ---------- faults ---------- *)

let test_fault_div () =
  match vm_fault ~args:[| 0 |] "fn main(a : int) : int { return 1 / a; }" with
  | Fault.Division_by_zero -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_oob () =
  match
    vm_fault ~args:[| 7 |] "array a[4];\nfn main(i : int) : int { return a[i]; }"
  with
  | Fault.Out_of_bounds _ -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_fuel () =
  match vm_fault ~fuel:500 "fn main() : int { while (true) { } return 0; }" with
  | Fault.Fuel_exhausted -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_recursion () =
  match
    vm_fault ~entry:"f" ~args:[| 0 |]
      "fn f(n : int) : int { return f(n + 1); }"
  with
  | Fault.Stack_overflow -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_readonly_store_faults () =
  let prog = compile_ok "shared array w[4];\nfn main() : int { w[0] = 1; return 0; }" in
  let mem = Memory.create 128 in
  let window = Memory.alloc mem ~name:"w" ~len:4 ~perm:Memory.perm_ro in
  let image =
    match Link.link prog ~mem ~shared:[ ("w", window) ] ~hosts:[] with
    | Ok i -> i
    | Error m -> Alcotest.failf "link: %s" m
  in
  let p = Stackvm.load_exn image in
  match Gelrun.vm image p ~entry:"main" ~args:[||] ~fuel:1000 with
  | Error (`Fault (Fault.Protection _)) -> ()
  | _ -> Alcotest.fail "expected protection fault"

(* ---------- verifier ---------- *)

let trivial_arrays = [||]

let mkprog ?(funcs = [||]) ?(arrays = trivial_arrays) ?(ext_arity = [||])
    ?(ncells = 16) code =
  {
    Program.code;
    funcs;
    arrays;
    host = Array.map (fun _ _ _ -> 0) ext_arity;
    ext_arity;
    ext_names = Array.map (fun _ -> "") ext_arity;
    cells = Array.make ncells 0;
  }

let fdesc ?(nargs = 0) ?(nlocals = 1) ~entry ~code_end name =
  { Program.name; nargs; nlocals; entry; code_end }

let expect_reject p fragment =
  match Verify.verify p with
  | Ok () -> Alcotest.fail "verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_verify_accepts_compiled () =
  let image =
    fresh_image
      "array a[4];\n\
       fn helper(x : int) : int { return x * 2; }\n\
       fn main() : int {\n\
       var s = 0;\n\
       for (var i = 0; i < 4; i = i + 1) { a[i] = helper(i); s = s + a[i]; }\n\
       return s;\n\
       }"
  in
  match Stackvm.load image with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verifier rejected good code: %s" msg

let test_verify_stack_underflow () =
  let code = [| Opcode.Add; Opcode.Const 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "underflow"

let test_verify_jump_outside_function () =
  let code =
    [| Opcode.Jmp 5; Opcode.Const 0; Opcode.Ret; (* fn2: *) Opcode.Const 1;
       Opcode.Ret; Opcode.Const 2; Opcode.Ret |]
  in
  let p =
    mkprog
      ~funcs:[| fdesc ~entry:0 ~code_end:3 "f"; fdesc ~entry:3 ~code_end:7 "g" |]
      code
  in
  expect_reject p "outside"

let test_verify_bad_local () =
  let code = [| Opcode.Load_local 3; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~nlocals:2 ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "local 3 out of range"

let test_verify_bad_array_id () =
  let code = [| Opcode.Const 0; Opcode.Aload 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "array id"

let test_verify_reachable_halt () =
  let code = [| Opcode.Halt; Opcode.Const 0; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:3 "f" |] code in
  expect_reject p "halt"

let test_verify_falls_off_end () =
  let code = [| Opcode.Const 1; Opcode.Pop |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "falls off"

let test_verify_inconsistent_heights () =
  (* Join point reached with heights 1 and 2. *)
  let code =
    [| Opcode.Const 0; Opcode.Jz 4; Opcode.Const 1; Opcode.Const 2;
       (* pc 4: from Jz path nothing pushed after the pop; from
          fallthrough two pushes *) Opcode.Const 9; Opcode.Ret |]
  in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:6 "f" |] code in
  expect_reject p "inconsistent"

let test_verify_bad_call_target () =
  let code = [| Opcode.Call 7; Opcode.Ret |] in
  let p = mkprog ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "invalid function"

let test_verify_bad_global_address () =
  let code = [| Opcode.Load_global 999; Opcode.Ret |] in
  let p = mkprog ~ncells:16 ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "global address"

let test_verify_bad_array_descriptor () =
  let code = [| Opcode.Const 0; Opcode.Ret |] in
  let arrays = [| { Program.base = 10; len = 100; writable = true } |] in
  let p = mkprog ~arrays ~funcs:[| fdesc ~entry:0 ~code_end:2 "f" |] code in
  expect_reject p "address space"

(* ---------- verifier: hand-built misuse of fused opcodes ---------- *)

let reject_code ?(nlocals = 2) ?arrays code fragment =
  let n = Array.length code in
  let p =
    mkprog ?arrays ~funcs:[| fdesc ~nlocals ~entry:0 ~code_end:n "f" |] code
  in
  expect_reject p fragment

let test_verify_fused_underflow () =
  reject_code [| Opcode.Bink (Opcode.KAdd, 1); Opcode.Ret |] "underflow";
  reject_code
    [| Opcode.Const 1; Opcode.Jcmp (Opcode.Clt, false, 0); Opcode.Const 0;
       Opcode.Ret |]
    "underflow";
  reject_code
    [| Opcode.Const 1; Opcode.Bin_store (Opcode.KAdd, 0); Opcode.Const 0;
       Opcode.Ret |]
    "underflow"

let test_verify_fused_div_by_constant_zero () =
  reject_code
    [| Opcode.Const 1; Opcode.Bink (Opcode.KDiv, 0); Opcode.Ret |]
    "constant zero";
  reject_code
    [| Opcode.Const 1; Opcode.Bink (Opcode.KMod, 0); Opcode.Ret |]
    "constant zero";
  reject_code
    [| Opcode.Const 1; Opcode.Bink_store (Opcode.KDiv, 0, 0); Opcode.Const 0;
       Opcode.Ret |]
    "constant zero";
  reject_code
    [| Opcode.Bink_local (Opcode.KMod, 0, 0); Opcode.Ret |]
    "constant zero"

let test_verify_fused_div_unprovable () =
  (* A local or popped divisor can be zero at run time, so the fused
     forms must never carry Div/Mod: the peephole pass keeps the plain
     opcode there, and hand-built bytecode that tries is rejected. *)
  reject_code
    [| Opcode.Const 1; Opcode.Bin_local (Opcode.KDiv, 0); Opcode.Ret |]
    "by a local";
  reject_code
    [| Opcode.Bin_local2 (Opcode.KMod, 0, 1); Opcode.Ret |]
    "by a local";
  reject_code
    [| Opcode.Const 6; Opcode.Const 2; Opcode.Bin_store (Opcode.KDiv, 0);
       Opcode.Const 0; Opcode.Ret |]
    "popped";
  reject_code
    [| Opcode.Const 6; Opcode.Bin_aload_local (Opcode.KMod, 0, 0);
       Opcode.Ret |]
    "popped"

let test_verify_fused_bad_array_id () =
  let arrays = [| { Program.base = 0; len = 8; writable = true } |] in
  reject_code ~arrays [| Opcode.Aload_k (3, 0); Opcode.Ret |] "array id";
  reject_code ~arrays [| Opcode.Aload_local (3, 0); Opcode.Ret |] "array id";
  reject_code ~arrays
    [| Opcode.Const 1; Opcode.Bin_aload_local (Opcode.KAdd, 3, 0);
       Opcode.Ret |]
    "array id";
  reject_code ~arrays
    [| Opcode.Aload_local_store (3, 0, 1); Opcode.Const 0; Opcode.Ret |]
    "array id"

let test_verify_fused_bad_local () =
  reject_code
    [| Opcode.Local_addk (5, 1); Opcode.Const 0; Opcode.Ret |]
    "local 5 out of range";
  reject_code
    [| Opcode.Bink_local (Opcode.KAdd, 5, 1); Opcode.Ret |]
    "local 5 out of range";
  reject_code
    [| Opcode.Move_local2 (0, 1, 5, 0); Opcode.Const 0; Opcode.Ret |]
    "local 5 out of range";
  reject_code
    [| Opcode.Bin_local2 (Opcode.KAdd, 0, 5); Opcode.Ret |]
    "local 5 out of range";
  reject_code
    [| Opcode.Store_localk (5, 1); Opcode.Const 0; Opcode.Ret |]
    "local 5 out of range";
  let arrays = [| { Program.base = 0; len = 8; writable = true } |] in
  reject_code ~arrays
    [| Opcode.Aload_local_store (0, 0, 5); Opcode.Const 0; Opcode.Ret |]
    "local 5 out of range"

let test_verify_fused_jump_outside () =
  reject_code
    [| Opcode.Const 0; Opcode.Jcmpk (Opcode.Ceq, 0, false, 9); Opcode.Const 0;
       Opcode.Ret |]
    "outside";
  reject_code
    [| Opcode.Jcmpk_local (Opcode.Clt, 0, 3, true, 9); Opcode.Const 0;
       Opcode.Ret |]
    "outside"

(* ---------- verifier: termination at fused back edges ---------- *)

(* Run [f] under a wall-clock alarm, so a verifier that stops
   terminating fails this test instead of hanging the suite. *)
let within_seconds n f =
  let exception Timeout in
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout))
  in
  ignore (Unix.alarm n);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      try f () with Timeout -> Alcotest.failf "did not finish within %ds" n)

(* A counting loop whose step is plain [lload; const; add; lstore],
   followed by one [aload.u] at index 0 that sends the program through
   pass 2. [~fused] closes the loop with [Jcmpk_local], which pass 2
   models without refinement, so the counter's interval grows by one
   per round until the loop head widens; the twin closes it with
   [lload; const; ne; jnz]. *)
let counted_loop ~fused =
  let close =
    if fused then [| Opcode.Jcmpk_local (Opcode.Cne, 0, 100, true, 2) |]
    else [| Opcode.Load_local 0; Opcode.Const 100; Opcode.Ne; Opcode.Jnz 2 |]
  in
  let code =
    Array.concat
      [
        [| Opcode.Const 0; Opcode.Store_local 0; Opcode.Load_local 0;
           Opcode.Const 1; Opcode.Add; Opcode.Store_local 0 |];
        close;
        [| Opcode.Const 0; Opcode.Aload_u 0; Opcode.Ret |];
      ]
  in
  let n = Array.length code in
  mkprog
    ~arrays:[| { Program.base = 0; len = 4; writable = false } |]
    ~funcs:[| fdesc ~entry:0 ~code_end:n "f" |]
    code

let test_verify_fused_back_edge () =
  Alcotest.(check int) "ten instructions" 10
    (Array.length (counted_loop ~fused:true).Program.code);
  List.iter
    (fun fused ->
      match within_seconds 10 (fun () -> Verify.verify (counted_loop ~fused)) with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s loop rejected: %s"
            (if fused then "fused" else "ne/jnz")
            msg)
    [ false; true ]

(* ---------- verifier: loop-head widening ---------- *)

(* Load [src] on the statically checked tier and the JIT, both with
   [~bounded:true] and a fresh 8-entry array map's helpers linked, and
   return the static tier's (elided, total) check sites. *)
let load_static_and_jit src =
  let load loader =
    let maps = [| Graft_kernel.Graftmap.create_array ~name:"m" 8 |] in
    loader (fresh_image ~hosts:(Graft_core.Runners.map_hosts maps) src)
  in
  let p =
    match load (Stackvm.load_static ~bounded:true) with
    | Ok p -> p
    | Error msg -> Alcotest.failf "static tier rejected: %s" msg
  in
  (match load (Graft_jit.Jit.load ~bounded:true) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "jit rejected: %s" msg);
  Stackvm.elision_stats p

(* The inner body indexes an array and a map key with the outer
   counter. Each outer round re-enters the inner loop with a wider
   counter; that entry must join exactly, so the inner head keeps the
   outer guard's [0,7] rather than widening it to [0,+inf]. The map
   key is a helper call's argument, which the map object checks, so
   the array index is the one check site. *)
let nested_loops_src =
  {|
extern fn map_lookup(int, int) : int;
array a[8];
fn main() : int {
  var s = 0;
  for (var i = 0; i < 8; i = i + 1) {
    for (var j = 0; j < 3; j = j + 1) {
      s = s + a[i] + map_lookup(0, i) + j;
    }
  }
  return s;
}
|}

let test_widen_nested_loops () =
  Alcotest.(check (pair int int)) "array index elided" (1, 1)
    (load_static_and_jit nested_loops_src)

(* A one-armed [if] and an [if]/[else] with arms of different lengths
   inside the loop: the skip edge reaches the join point before the
   longer arm does. Both arms must merge before the back edge runs, so
   one pass over the body changes the head once and [k] and [m] keep
   the [0,3] and [0,5] the analysis proved. *)
let test_widen_uneven_arms () =
  Alcotest.(check (pair int int)) "a[k] and a[m] elided" (2, 2)
    (load_static_and_jit
       {|
array a[8];
fn main() : int {
  var s = 0;
  var k = 0;
  var m = 0;
  for (var i = 0; i < 8; i = i + 1) {
    s = s + a[k] + a[m];
    if (s > 5) { k = 3; }
    if (s > 9) { m = 2; } else { s = s + 1; s = s * 2; m = 5; }
  }
  return s;
}
|})

(* The inner loop reads [x] before reassigning it from the outer
   counter. Each outer round enters the inner loop with a wider [i];
   that arrival restarts the inner head's count, so the inner back edge
   joins [x] exactly again and it stays within the outer guard's [0,7]
   instead of widening to [0,+inf]. *)
let test_widen_reentry_resets () =
  Alcotest.(check (pair int int)) "a[x] elided" (1, 1)
    (load_static_and_jit
       {|
array a[8];
fn main() : int {
  var s = 0;
  for (var i = 0; i < 8; i = i + 1) {
    var x = 0;
    for (var j = 0; j < 3; j = j + 1) {
      s = s + a[x];
      x = i;
    }
  }
  return s;
}
|})

let test_widen_long_loop () =
  Alcotest.(check (pair int int)) "a[i] elided" (1, 1)
    (load_static_and_jit
       {|
array a[1000];
fn main() : int {
  var s = 0;
  for (var i = 0; i < 1000; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
|})

(* Re-deriving the MD5 graft's elisions walks each counted loop a few
   times, not once per iteration. *)
let test_widen_md5_allocation () =
  let env =
    Graft_core.Runners.gel_env Graft_core.Technology.Safe_lang_static
      (Graft_grafts.Gel_sources.md5 ~data_cells:384)
      [ ("data", 384, true); ("digest", 16, true) ]
  in
  let p = Stackvm.load_static_exn env.Graft_core.Runners.image in
  let elided, _ = Stackvm.elision_stats p in
  Alcotest.(check bool) "MD5 carries elisions" true (elided > 0);
  let w0 = Gc.minor_words () in
  (match Verify.verify p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "MD5 rejected: %s" msg);
  let words = Gc.minor_words () -. w0 in
  if words >= 300_000. then
    Alcotest.failf "Verify.verify allocated %.0f minor words (budget 300k)"
      words

let test_verify_heights () =
  let code =
    [| Opcode.Const 1; Opcode.Const 2; Opcode.Jmp 4; Opcode.Pop; Opcode.Add;
       Opcode.Ret |]
  in
  match Verify.heights (mkprog ~funcs:[| fdesc ~entry:0 ~code_end:6 "f" |] code) with
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok h ->
      Alcotest.(check (array int)) "per-pc heights" [| 0; 1; 2; -1; 2; 1 |]
        h.Verify.at;
      Alcotest.(check (array int)) "per-function maximum" [| 2 |] h.Verify.fmax

(* ---------- opcode facts ---------- *)

(* One instance of every [Opcode.t] constructor; jumps aim at pc 5. *)
let every_opcode =
  Opcode.
    [
      Const 1; Load_local 0; Store_local 0; Load_global 0; Store_global 0;
      Aload 0; Astore 0; Aload_u 0; Astore_u 0; Add; Sub; Mul; Div; Mod;
      Div_u; Mod_u; Shl; Shr; Lshr; Band; Bor; Bxor; Bnot; Neg; Wadd; Wsub;
      Wmul; Wshl; Wshr; Wbnot; Wneg; Wmask; Lt; Le; Gt; Ge; Eq; Ne; Tobool;
      Not; Jmp 5; Jz 5; Jnz 5; Call 0; Callext 0; Ret; Pop; Dup; Halt;
      Bink (KAdd, 1);
      Cmpk (Clt, 1); Jcmp (Clt, true, 5); Jcmpk (Clt, 1, true, 5);
      Aload_k (0, 1); Local_addk (0, 1); Load_local2 (0, 1);
      Bin_local (KAdd, 0); Bin_local2 (KAdd, 0, 1); Aload_local (0, 1);
      Move_local (0, 1); Jcmpk_local (Clt, 0, 1, true, 5);
      Store_localk (0, 1); Bin_store (KAdd, 0); Bink_store (KAdd, 1, 0);
      Bink_local (KAdd, 0, 1); Bin_aload_local (KAdd, 0, 1);
      Aload_local_store (0, 1, 2); Move_local2 (0, 1, 2, 3);
    ]

let test_opcode_facts () =
  let name op = Opcode.class_names.(Opcode.index op) in
  let names = Alcotest.(check (list string)) in
  names "one instance per constructor"
    (Array.to_list Opcode.class_names)
    (List.map (fun i -> Opcode.class_names.(i))
       (List.sort compare (List.map Opcode.index every_opcode)));
  (* [map_target] moves exactly the constructors [target] reports,
     and nothing but the target. *)
  List.iter
    (fun op ->
      let moved = Opcode.map_target (fun t -> t + 100) op in
      match Opcode.target op with
      | Some t ->
          Alcotest.(check (option int)) (name op ^ " moved") (Some (t + 100))
            (Opcode.target moved);
          Alcotest.(check bool) (name op ^ " otherwise kept") true
            (Opcode.map_target (fun _ -> t) moved = op)
      | None -> Alcotest.(check bool) (name op ^ " kept") true (moved = op))
    every_opcode;
  names "branches" [ "jmp"; "jz"; "jnz"; "jcmp"; "jcmp.k"; "jcmp.lk" ]
    (List.map name (List.filter (fun op -> Opcode.target op <> None) every_opcode));
  (* [twin] pairs exactly the four checked/unchecked forms. *)
  let pairs =
    List.filter_map
      (fun op ->
        match Opcode.twin op with
        | Some u when Opcode.is_unchecked u ->
            Alcotest.(check bool) (name op ^ " twin of twin") true
              (Opcode.twin u = Some op && not (Opcode.is_unchecked op));
            Some (name op ^ "/" ^ name u)
        | _ -> None)
      every_opcode
  in
  names "check-site pairs"
    [ "aload/aload.u"; "astore/astore.u"; "div/div.u"; "mod/mod.u" ]
    pairs;
  names "unchecked forms"
    [ "aload.u"; "astore.u"; "div.u"; "mod.u" ]
    (List.map name (List.filter Opcode.is_unchecked every_opcode));
  Alcotest.(check int) "eight check-site forms" 8
    (List.length (List.filter (fun op -> Opcode.twin op <> None) every_opcode));
  (* Each selector names the operator its opcode prints as. *)
  List.iter
    (fun op ->
      Option.iter
        (fun b -> Alcotest.(check string) "binop" (name op) (Opcode.bink_name b))
        (Opcode.binop op);
      Option.iter
        (fun c -> Alcotest.(check string) "cmpop" (name op) (Opcode.cmp_name c))
        (Opcode.cmpop op);
      List.iter
        (fun n ->
          Alcotest.(check bool) (name op ^ " writes a named local") true
            (List.mem n (Opcode.locals op)))
        (Opcode.writes op))
    every_opcode;
  Alcotest.(check int) "binary operators" 16
    (List.length (List.filter (fun op -> Opcode.binop op <> None) every_opcode));
  Alcotest.(check int) "comparisons" 6
    (List.length (List.filter (fun op -> Opcode.cmpop op <> None) every_opcode))

(* The VM refuses unverified malicious code end-to-end via load. *)
let test_load_rejects () =
  let image = fresh_image "fn main() : int { return 0; }" in
  let p = Compile.compile image in
  let evil = { p with Program.code = [| Opcode.Add; Opcode.Ret |];
               funcs = [| fdesc ~entry:0 ~code_end:2 "main" |] } in
  match Verify.verify evil with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "evil code verified"

(* ---------- disasm ---------- *)

let test_disasm () =
  let image = fresh_image "fn main() : int { return 1 + 2; }" in
  let p = Stackvm.load_exn image in
  let s = Disasm.program p in
  Alcotest.(check bool) "has const" true (contains s "const 1");
  Alcotest.(check bool) "has ret" true (contains s "ret")

(* ---------- differential vs reference interpreter ---------- *)

let diff_programs =
  [
    ( "collatz steps",
      "fn main(n : int) : int {\n\
       var steps = 0;\n\
       while (n != 1 && steps < 1000) {\n\
       if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n\
       steps = steps + 1;\n\
       }\n\
       return steps;\n\
       }",
      fun r -> [| 1 + Graft_util.Prng.int r 100000 |] );
    ( "word mix",
      "fn main(a : int, b : int) : int {\n\
       var x : word = word(a);\n\
       var y : word = word(b);\n\
       var acc : word = 0;\n\
       for (var i = 0; i < 16; i = i + 1) {\n\
       acc = (acc + x * y) ^ (x << (i & 31)) | (y >>> 3);\n\
       x = x + 0x9E3779B9;\n\
       y = y - x;\n\
       }\n\
       return int(acc);\n\
       }",
      fun r ->
        [| Graft_util.Prng.int r 0x40000000; Graft_util.Prng.int r 0x40000000 |] );
    ( "array shuffle sum",
      "array a[32];\n\
       fn main(seed : int) : int {\n\
       for (var i = 0; i < 32; i = i + 1) { a[i] = seed * i + i * i; }\n\
       var s = 0;\n\
       for (var i = 0; i < 32; i = i + 1) {\n\
       var j = (i * 7 + 3) % 32;\n\
       var t = a[i]; a[i] = a[j]; a[j] = t;\n\
       s = s + a[i] * i;\n\
       }\n\
       return s;\n\
       }",
      fun r -> [| Graft_util.Prng.int r 10000 |] );
    ( "recursion ackermann-lite",
      "fn ack(m : int, n : int) : int {\n\
       if (m == 0) { return n + 1; }\n\
       if (n == 0) { return ack(m - 1, 1); }\n\
       return ack(m - 1, ack(m, n - 1));\n\
       }\n\
       fn main(m : int, n : int) : int { return ack(m, n); }",
      fun r -> [| Graft_util.Prng.int r 3; Graft_util.Prng.int r 4 |] );
    ( "division corners",
      "fn main(a : int, b : int) : int {\n\
       if (b == 0) { return -1; }\n\
       return a / b + a % b;\n\
       }",
      fun r -> [| Graft_util.Prng.int r 1000 - 500; Graft_util.Prng.int r 20 - 10 |] );
  ]

let test_differential () =
  let r = Graft_util.Prng.create 0xD1FFL in
  List.iter
    (fun (name, src, gen) ->
      for _ = 1 to 20 do
        let args = gen r in
        ignore (both ~args src : int);
        ignore name
      done)
    diff_programs

let prop_differential_expr =
  (* Random arithmetic-over-args programs evaluated by both engines. *)
  QCheck.Test.make ~name:"random expressions: vm = interp" ~count:150
    QCheck.(pair (int_range 0 1000000) (int_range 0 1000000))
    (fun (a, b) ->
      let src =
        "fn main(a : int, b : int) : int {\n\
         var c = a * 3 - b / (b % 97 + 1);\n\
         var d = (a ^ b) & 0xFFFF | (c << 2);\n\
         if (d > a) { d = d - a; } else { d = a - d; }\n\
         while (d > 1000) { d = d / 3 - 1; }\n\
         return d * 2 + c % 5;\n\
         }"
      in
      let i1 = fresh_image src in
      let r1 = Gelrun.interp i1 ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      let i2 = fresh_image src in
      let p = Stackvm.load_exn i2 in
      let r2 = Gelrun.vm i2 p ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      match (r1, r2) with Ok x, Ok y -> x = y | _ -> false)

(* The verifier must be total: random instruction sequences either
   verify or are rejected with a message — never an exception — and
   anything it accepts must run without crashing the host. The
   sequences index an 8-cell array and divide, with checked and
   unchecked sites both, so an accepted unchecked site must be one the
   verifier proved: the program ends exactly as its all-checked twin
   does. *)
let random_instr rng ncode =
  let open Opcode in
  match Graft_util.Prng.int rng 21 with
  | 0 -> Const (Graft_util.Prng.int rng 100)
  | 1 -> Load_local (Graft_util.Prng.int rng 4)
  | 2 -> Store_local (Graft_util.Prng.int rng 4)
  | 3 -> Add
  | 4 -> Mul
  | 5 -> Pop
  | 6 -> Dup
  | 7 -> Jmp (Graft_util.Prng.int rng (ncode + 2))
  | 8 -> Jz (Graft_util.Prng.int rng (ncode + 2))
  | 9 -> Ret
  | 10 -> Lt
  | 11 -> Wadd
  | 12 -> Load_global (Graft_util.Prng.int rng 20)
  | 13 -> Ne
  | 14 -> Const (Graft_util.Prng.int rng 10)
  | 15 -> Aload 0
  | 16 -> Aload_u 0
  | 17 -> Astore 0
  | 18 -> Astore_u 0
  | 19 -> Div
  | _ -> Div_u

(* [n] random instructions, each replaced by a constant where the
   straight-line path has not pushed what it pops, closed by a return:
   about a third of them verify, so accepted code is common. *)
let random_code rng n =
  let h = ref 0 in
  let body =
    List.init n (fun _ ->
        let op = random_instr rng n in
        let pops, pushes = Opcode.effect op in
        if pops > !h then begin
          incr h;
          Opcode.Const (Graft_util.Prng.int rng 10)
        end
        else begin
          h := !h - pops + pushes;
          op
        end)
  in
  Array.of_list
    (body @ if !h = 0 then [ Opcode.Const 0; Opcode.Ret ] else [ Opcode.Ret ])

let prop_verifier_total_and_safe =
  QCheck.Test.make ~name:"verifier total; accepted code runs safely" ~count:300
    QCheck.(pair int64 (int_range 1 24))
    (fun (seed, n) ->
      let rng = Graft_util.Prng.create seed in
      let code = random_code rng n in
      let prog code =
        {
          Program.code;
          funcs =
            [| { Program.name = "f"; nargs = 0; nlocals = 4; entry = 0;
                 code_end = Array.length code } |];
          arrays = [| { Program.base = 4; len = 8; writable = true } |];
          host = [||];
          ext_arity = [||];
          ext_names = [||];
          cells = Array.make 16 0;
        }
      in
      let p = prog code in
      match Verify.verify p with
      | Error _ -> true
      | Ok () -> (
          (* Verified code must execute without host-level surprises,
             and end as the same code with every check kept does. *)
          let checked =
            prog
              (Array.map
                 (fun op -> if Opcode.is_unchecked op then Option.get (Opcode.twin op) else op)
                 code)
          in
          let run p =
            Gelrun.outcome (fun () -> Vm.run p ~fn:0 ~args:[||] ~fuel:10_000)
          in
          run p = run checked && p.Program.cells = checked.Program.cells))

(* ---------- the optimized tier: peephole-fused code ---------- *)

let loopy_src =
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n + 3;\n\
   s = s + a[i & 7] - s / 7;\n\
   }\n\
   return s;\n\
   }"

let test_peephole_fuses () =
  let plain = Stackvm.load_exn (fresh_image loopy_src) in
  let opt = Stackvm.load_opt_exn (fresh_image loopy_src) in
  Alcotest.(check bool) "code got shorter" true
    (Array.length opt.Program.code < Array.length plain.Program.code);
  let has f = Array.exists f opt.Program.code in
  Alcotest.(check bool) "some superinstruction present" true
    (has (function
      | Opcode.Bink _ | Opcode.Local_addk _ | Opcode.Jcmpk_local _
      | Opcode.Bink_store _ | Opcode.Bink_local _ | Opcode.Bin_store _ ->
          true
      | _ -> false));
  (* Re-running the pass on its own output must change nothing: fused
     opcodes never match a pattern head. *)
  let again = Peephole.optimize opt in
  Alcotest.(check bool) "idempotent" true (again.Program.code = opt.Program.code)

(* Both tiers on the same image: load vs load_opt differ only by the
   peephole pass, so results, faults and fuel accounting must agree
   exactly, instruction for instruction. *)
let run_both_tiers src ~args ~fuel =
  let run load =
    let image = fresh_image src in
    Gelrun.vm image (load image) ~entry:"main" ~args ~fuel
  in
  (run Stackvm.load_exn, run Stackvm.load_opt_exn)

let show_tier = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "fault " ^ Fault.to_string f

let test_tiers_differential () =
  let r = Graft_util.Prng.create 0x0B7L in
  List.iter
    (fun (name, src, gen) ->
      for _ = 1 to 10 do
        let args = gen r in
        let base, opt = run_both_tiers src ~args ~fuel:50_000_000 in
        if base <> opt then
          Alcotest.failf "%s: tiers disagree: base %s, opt %s" name
            (show_tier base) (show_tier opt)
      done)
    diff_programs

(* The dispatch loop writes the [Wordops] semantics out per opcode;
   hold each written-out word opcode to the reference interpreter
   (itself held to [Wordops] in test_gel) over the whole int range. *)
let word_ops_src =
  "fn main(a : int, b : int, op : int) : int {\n\
   var x : word = word(a);\n\
   var y : word = word(b);\n\
   if (op == 0) { return int(x + y); }\n\
   if (op == 1) { return int(x - y); }\n\
   if (op == 2) { return int(x * y); }\n\
   if (op == 3) { return int(x << b); }\n\
   if (op == 4) { return int(x >> b); }\n\
   if (op == 5) { return int(~x); }\n\
   if (op == 6) { return int(-x); }\n\
   return int(x);\n\
   }"

(* Run [p] and the reference interpreter on [src]'s [main(a, b, op)]
   for every [op] below [nops]: every pair of edge operands first, then
   random ones. *)
let check_ops_against_interp ~tier ~seed p src nops =
  let reference = fresh_image src in
  let s = Vm.create_session p in
  let main = Gelrun.fn reference "main" ~args:[| 0; 0; 0 |] in
  let r = Graft_util.Prng.create seed in
  let edges =
    [| 0; 1; -1; 7; 31; 32; 0xFFFFFFFF; 0x80000000; max_int; min_int |]
  in
  let ne = Array.length edges in
  for i = 0 to 299 do
    let a, b =
      if i < ne * ne then (edges.(i / ne), edges.(i mod ne))
      else
        ( Int64.to_int (Graft_util.Prng.next r),
          Int64.to_int (Graft_util.Prng.next r) )
    in
    for op = 0 to nops - 1 do
      let args = [| a; b; op |] in
      let expect = Gelrun.interp reference ~entry:"main" ~args ~fuel:1000 in
      let got =
        Gelrun.outcome (fun () -> Vm.run_session s ~fn:main ~args ~fuel:1000)
      in
      if got <> expect then
        Alcotest.failf "op %d on (%d, %d): interp %s, %s %s" op a b
          (show_tier expect) tier (show_tier got)
    done
  done

let test_word_ops_written_out () =
  let p = Stackvm.load_exn (fresh_image word_ops_src) in
  List.iter
    (fun op ->
      if not (Array.mem op p.Program.code) then
        Alcotest.failf "no %s in the plain code"
          Opcode.class_names.(Opcode.index op))
    Opcode.[ Wadd; Wsub; Wmul; Wshl; Wshr; Wbnot; Wneg; Wmask ];
  check_ops_against_interp ~tier:"plain" ~seed:0x3D9L p word_ops_src 8

let faulty_src =
  (* Faults on purpose: a[n] is out of bounds for n outside [0, 8) and
     the division faults for n = -100. *)
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n;\n\
   s = s + a[i & 7] + i / (n + 100);\n\
   }\n\
   return s + a[n];\n\
   }"

(* Every fused superinstruction the peephole pass can emit must both
   disassemble and re-verify: Stackvm.load_opt runs the verifier over
   fused code in production, so a fused form the verifier cannot type
   is a load-time failure waiting for the right source, and a form
   Opcode.to_string cannot print breaks `graftkit gel --dump`. The
   corpus is chosen so the pass emits all 19 fused constructors at
   least once; the coverage assertion keeps it honest when patterns
   are added or the compiler's code shapes drift. *)
let fused_roundtrip_corpus =
  [
    loopy_src;
    faulty_src;
    (* moves, constant stores, and a lone move between the two *)
    "fn main(x : int) : int {\n\
     var y = 0; var z = 0; var w = 0;\n\
     y = x; z = y;\n\
     w = 5;\n\
     z = w;\n\
     return w + z;\n\
     }";
    (* calls break fusion runs: bare Jcmp, Bin_store, Load_local2 *)
    "fn f(n : int) : int { return n - 1; }\n\
     fn g2(p : int, q : int) : int { return p * q; }\n\
     fn main(x : int) : int {\n\
     var y = 7; var s = 0;\n\
     s = f(x) + f(y);\n\
     if (f(x) < f(y)) { s = s + g2(x, y); }\n\
     return s;\n\
     }";
    (* array forms: constant index, local index, load-into-local,
       load-as-operand *)
    "array a[8];\n\
     var g : int = 0;\n\
     fn h(i : int) : int { return a[i]; }\n\
     fn main(i : int) : int {\n\
     var x = 0; var y = 3;\n\
     x = a[i];\n\
     g = x * y + a[i];\n\
     g = x * y + 7;\n\
     g = x * y * y;\n\
     return a[2] + h(i);\n\
     }";
    (* comparison against a constant without a branch, fused divides *)
    "fn main(n : int) : int {\n\
     var s = 0;\n\
     for (var i = 0; i < 10; i = i + 1) { s = s + 2; }\n\
     var b : bool = n == 3;\n\
     if (!b) { s = s * n + 1; }\n\
     if (s * n > 12) { s = 0; }\n\
     return s + n / 3;\n\
     }";
  ]

let test_peephole_verifier_roundtrip () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun src ->
      let opt = Stackvm.load_opt_exn (fresh_image src) in
      (* load_opt already verified once; re-verify the fused program
         explicitly to pin the round trip. *)
      (match Verify.verify opt with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fused program fails re-verify: %s" e);
      ignore (Disasm.program opt);
      Array.iter
        (fun op ->
          if String.length (Opcode.to_string op) = 0 then
            Alcotest.fail "empty disassembly";
          if Opcode.width op > 1 then Hashtbl.replace seen (Opcode.index op) ())
        opt.Program.code)
    fused_roundtrip_corpus;
  (* Opcode indices 49..67 are exactly the fused constructors. *)
  let missing = ref [] in
  for i = 67 downto 49 do
    if not (Hashtbl.mem seen i) then
      missing := Opcode.class_names.(i) :: !missing
  done;
  if !missing <> [] then
    Alcotest.failf "fused constructors never emitted by the corpus: %s"
      (String.concat ", " !missing)

(* ---------- bounded loading: counted loops under the optimizer ---------- *)

let expect_reject_bounded p fragment =
  match Verify.verify ~bounded:true p with
  | Ok () -> Alcotest.fail "bounded verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

(* A certified loop may be entered from outside only through its
   initialiser's first instruction (the [Const]). A jump that lands one
   instruction later — on the [Store_local] — would seed the counter
   from whatever the jumper left on the stack, and the derived
   closed-form trip count would not cover that path. [g], when given,
   is a one-argument function starting at that pc. *)
let bounds_entry_program ?g ~outside_target () =
  let code =
    [|
      (* 0 *) Opcode.Const 7;
      (* 1 *) Opcode.Jmp outside_target;
      (* 2 *) Opcode.Const 0 (* t-2: initialiser *);
      (* 3 *) Opcode.Store_local 0 (* t-1 *);
      (* 4 *) Opcode.Load_local 0 (* t: head *);
      (* 5 *) Opcode.Const 4;
      (* 6 *) Opcode.Lt;
      (* 7 *) Opcode.Jz 13;
      (* 8 *) Opcode.Load_local 0 (* b-4: step *);
      (* 9 *) Opcode.Const 1;
      (* 10 *) Opcode.Add;
      (* 11 *) Opcode.Store_local 0;
      (* 12 *) Opcode.Jmp 4 (* b: certified backedge *);
      (* 13 *) Opcode.Const 0;
      (* 14 *) Opcode.Ret;
    |]
  in
  let g =
    Option.to_list
      (Option.map (fun entry -> fdesc ~nargs:1 ~entry ~code_end:15 "g") g)
  in
  mkprog
    ~funcs:(Array.of_list (fdesc ~nlocals:1 ~entry:0 ~code_end:15 "main" :: g))
    code

let test_bounds_entry_discipline () =
  (* Entering at the initialiser's Const re-initialises the counter:
     legal, and so is a function that starts there. *)
  List.iter
    (fun g ->
      match
        Verify.verify ~bounded:true (bounds_entry_program ?g ~outside_target:2 ())
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "entry through the initialiser rejected: %s" m)
    [ None; Some 2 ];
  (* Entering at the Store_local skips the Const and seeds the counter
     from the jumper's stack: must be rejected... *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:3 ())
    "enters a certified loop";
  (* ...as must entering at the loop head, past the whole initialiser. *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:4 ())
    "enters a certified loop";
  (* A function may not start inside the loop either: [g] starting at
     the head runs the loop from its argument, so g(-10_000_000) would
     run ten million trips past the derived bound of 4. (Pass 1 refuses
     any later start, whose extent leaves out the head the back edge
     jumps to, and a start on the [Store_local], which pops an empty
     stack.) *)
  expect_reject_bounded
    (bounds_entry_program ~g:4 ~outside_target:2 ())
    "starts inside a certified loop"

(* Under bounded loading the optimizer must not break the loop
   windows: load_opt fuses the loop body around them, and the bounded
   verifier derives the bound from the fused code it ships. Unbounded,
   the same windows fuse. *)
let test_bounded_opt_certified () =
  let image = fresh_image loopy_src in
  let plain = Stackvm.load_exn ~bounded:true image in
  let opt = Stackvm.load_opt_exn ~bounded:true (fresh_image loopy_src) in
  let backward (p : Program.t) =
    let n = ref 0 in
    Array.iteri
      (fun pc op ->
        match op with Opcode.Jmp t when t <= pc -> incr n | _ -> ())
      p.Program.code;
    !n
  in
  Alcotest.(check bool) "the counted loop survives fusion" true
    (backward opt = backward plain && backward opt > 0);
  Alcotest.(check bool) "fusion still shortens certified code" true
    (Array.length opt.Program.code < Array.length plain.Program.code);
  (match Verify.verify ~bounded:true opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fused certified program fails re-verify: %s" m);
  (match Verify.verify ~bounded:true (Stackvm.load_opt_exn (fresh_image loopy_src)) with
  | Ok () -> Alcotest.fail "unbounded fusion kept the loop windows"
  | Error _ -> ());
  List.iter
    (fun n ->
      let base = Gelrun.vm image plain ~entry:"main" ~args:[| n |] ~fuel:1_000_000 in
      let fused = Gelrun.vm image opt ~entry:"main" ~args:[| n |] ~fuel:1_000_000 in
      if base <> fused then
        Alcotest.failf "bounded tiers disagree on n=%d: %s vs %s" n
          (show_tier base) (show_tier fused))
    [ 0; 3; -7 ]

(* Graftjail's fuel-parity guarantee, session edition: sweep EVERY
   fuel budget from 0 until past completion and require the optimized
   tier to agree with the plain tier not just on the result but on the
   entire memory image at the cut point. A fused superinstruction that
   performed its stores before charging the full group's fuel would
   pass the result check at most budgets but leave different memory
   when the watchdog fires mid-group — exactly what this catches. *)
let fuel_parity_corpus =
  [
    ("loopy", loopy_src, [ [| 3 |]; [| -7 |] ]);
    ("faulty ok", faulty_src, [ [| 2 |] ]);
    ("faulty oob", faulty_src, [ [| 9 |]; [| -3 |] ]);
    ("faulty div", faulty_src, [ [| -100 |] ]);
  ]

let test_fuel_parity_sessions () =
  let run_tier load src args fuel =
    let image = fresh_image src in
    let s = Vm.create_session (load image) in
    let fn = Gelrun.fn image "main" ~args in
    let r = Gelrun.outcome (fun () -> Vm.run_session s ~fn ~args ~fuel) in
    (r, Array.copy (Memory.cells image.Link.mem))
  in
  List.iter
    (fun (name, src, argsets) ->
      List.iter
        (fun args ->
          (* Sweep until the plain tier reaches its terminal outcome
             (anything but fuel exhaustion), then 3 budgets beyond. *)
          let rec sweep fuel remaining =
            if remaining = 0 then ()
            else if fuel > 4000 then
              Alcotest.failf "%s: no terminal outcome within 4000 fuel" name
            else begin
              let r1, m1 = run_tier Stackvm.load_exn src args fuel in
              let r2, m2 = run_tier Stackvm.load_opt_exn src args fuel in
              if r1 <> r2 then
                Alcotest.failf "%s args %d fuel %d: plain %s, opt %s" name
                  args.(0) fuel (show_tier r1) (show_tier r2);
              if m1 <> m2 then
                Alcotest.failf
                  "%s args %d fuel %d: tiers agree on %s but memory differs"
                  name args.(0) fuel (show_tier r1);
              let remaining =
                match r1 with
                | Error (`Fault Fault.Fuel_exhausted) -> remaining
                | _ -> remaining - 1
              in
              sweep (fuel + 1) remaining
            end
          in
          sweep 0 3)
        argsets)
    fuel_parity_corpus

let prop_tiers_agree_any_fuel =
  (* Random fuel budgets cut execution off mid-program, including in
     the middle of fused groups; random arguments hit the bounds and
     division faults. The two tiers must agree on everything: value,
     fault identity, and whether fuel ran out first. *)
  QCheck.Test.make ~name:"optimized tier = baseline at any fuel" ~count:300
    QCheck.(pair (int_range 0 400) (int_range (-110) 110))
    (fun (fuel, n) ->
      let base, opt = run_both_tiers faulty_src ~args:[| n |] ~fuel in
      if base <> opt then
        QCheck.Test.fail_reportf "fuel %d n %d: base %s, opt %s" fuel n
          (show_tier base) (show_tier opt);
      true)

(* The fused opcodes' arithmetic is written out in the dispatch loop
   too; hold every fused operator, in its constant- and local-operand
   forms, to the reference interpreter over edge and random operands. *)
let fused_ops_src =
  "fn main(a : int, b : int, op : int) : int {\n\
   var x : word = word(a);\n\
   var y : word = word(b);\n\
   if (op == 0) { return int(x + y); }\n\
   if (op == 1) { return int(x - y); }\n\
   if (op == 2) { return int(x * y); }\n\
   if (op == 3) { return int(x + 0x9E3779B9); }\n\
   if (op == 4) { return int(x - 7); }\n\
   if (op == 5) { return int(x * 0x9E3779B9); }\n\
   if (op == 6) { return int(x << 7); }\n\
   if (op == 7) { return int(x >> 7); }\n\
   if (op == 8) { return a / 7; }\n\
   if (op == 9) { return a % 7; }\n\
   if (op == 10) { return a << 3; }\n\
   if (op == 11) { return a >> 3; }\n\
   if (op == 12) { return a >>> 3; }\n\
   if (op == 13) { return (a & b) | (a ^ 5); }\n\
   if (op == 14) { return a * b - a; }\n\
   return a + b;\n\
   }"

let test_fused_ops_written_out () =
  let p = Stackvm.load_opt_exn (fresh_image fused_ops_src) in
  let fused =
    Array.to_list p.Program.code
    |> List.filter_map (function
         | Opcode.Bink (op, _) | Opcode.Bin_local (op, _)
         | Opcode.Bin_local2 (op, _, _) | Opcode.Bin_store (op, _)
         | Opcode.Bink_store (op, _, _) | Opcode.Bink_local (op, _, _)
         | Opcode.Bin_aload_local (op, _, _) ->
             Some op
         | _ -> None)
  in
  List.iter
    (fun op ->
      if not (List.mem op fused) then
        Alcotest.failf "%s is not fused in the optimized code"
          (Opcode.bink_name op))
    Opcode.[ KWadd; KWsub; KWmul; KWshl; KWshr; KDiv; KMod; KShl; KShr; KLshr ];
  check_ops_against_interp ~tier:"opt" ~seed:0x3DAL p fused_ops_src 16

(* ---------- the AST walker's control flow ---------- *)

(* Each case has its expected result, so the walker and the stack
   tiers are pinned to the intended meaning, not only to each other. *)
let control_flow_cases =
  [
    ( "return from a doubly nested loop",
      "fn main(n : int) : int {\n\
       var i = 0;\n\
       while (i < n) {\n\
       var j = 0;\n\
       while (j < n) {\n\
       if (i * j > 20) { return i * 100 + j; }\n\
       j = j + 1;\n\
       }\n\
       i = i + 1;\n\
       }\n\
       return -1;\n\
       }",
      [ (10, 307); (4, -1) ] );
    ( "a callee's return does not end the caller's loop",
      "fn sq(x : int) : int { return x * x; }\n\
       fn main(n : int) : int {\n\
       var s = 0;\n\
       for (var i = 0; i < n; i = i + 1) { s = s + sq(i); }\n\
       return s;\n\
       }",
      [ (10, 285); (0, 0) ] );
    ( "break in an if inside an inner while",
      "fn main(n : int) : int {\n\
       var s = 0;\n\
       var i = 0;\n\
       while (i < n) {\n\
       var j = 0;\n\
       while (j < n) {\n\
       if (j == i) { break; }\n\
       s = s + 1;\n\
       j = j + 1;\n\
       }\n\
       i = i + 1;\n\
       }\n\
       return s;\n\
       }",
      [ (10, 45); (1, 0) ] );
    ( "continue in a for still runs the step",
      "fn main(n : int) : int {\n\
       var s = 0;\n\
       for (var i = 0; i < n; i = i + 1) {\n\
       if (i % 2 == 0) { continue; }\n\
       s = s + i;\n\
       }\n\
       return s;\n\
       }",
      [ (10, 25); (1, 0) ] );
    ( "a value-less return from a function called in a loop",
      "var total : int = 0;\n\
       fn add(v : int) {\n\
       if (v % 3 == 0) { return; }\n\
       total = total + v;\n\
       }\n\
       fn main(n : int) : int {\n\
       for (var i = 0; i < n; i = i + 1) { add(i); }\n\
       return total;\n\
       }",
      [ (10, 27); (3, 3) ] );
  ]

let control_flow_techs =
  Graft_core.Technology.
    [ Ast_interp; Bytecode_vm; Bytecode_opt; Safe_lang_static; Jit ]

let test_control_flow_agrees () =
  List.iter
    (fun (name, src, runs) ->
      List.iter
        (fun tech ->
          List.iter
            (fun (n, expect) ->
              (* A fresh image per run: [total] is a global. *)
              let env = Graft_core.Runners.gel_env tech src [] in
              let engine =
                Graft_core.Runners.engine ~fuel:1_000_000 tech
                  env.Graft_core.Runners.image
              in
              let args = [| n |] in
              let fn = Gelrun.fn env.Graft_core.Runners.image "main" ~args in
              match Gelrun.outcome (fun () -> engine ~fn ~args) with
              | Ok v when v = expect -> ()
              | r ->
                  Alcotest.failf "%s, %s, n=%d: expected %d, got %s" name
                    (Graft_core.Technology.name tech)
                    n expect (show_tier r))
            runs)
        control_flow_techs)
    control_flow_cases

(* The least fuel with which ast-interp returns, measured on the walker
   that unwound [return], [break] and [continue] with exceptions: the
   walk charges one unit per evaluated node, in the same order, however
   its control flow is carried. *)
let check_fuel_pin name ~least run =
  (match run least with
  | Ok _ -> ()
  | r -> Alcotest.failf "%s at fuel %d: %s" name least (show_tier r));
  match run (least - 1) with
  | Error (`Fault Fault.Fuel_exhausted) -> ()
  | r -> Alcotest.failf "%s at fuel %d: %s" name (least - 1) (show_tier r)

let md5_160_least_fuel = 16_087
let loops_least_fuel = 1_645

let test_md5_fuel_pin () =
  check_fuel_pin "md5 run(160)" ~least:md5_160_least_fuel (fun fuel ->
      let env =
        Graft_core.Runners.gel_env Graft_core.Technology.Ast_interp
          (Graft_grafts.Gel_sources.md5 ~data_cells:288)
          [ ("data", 288, true); ("digest", 16, true) ]
      in
      Gelrun.interp env.Graft_core.Runners.image ~entry:"run" ~args:[| 160 |]
        ~fuel)

let loops_src =
  "var hits : int = 0;\n\
   fn note(v : int) {\n\
   if (v > 5) { return; }\n\
   hits = hits + v;\n\
   }\n\
   fn first_over(n : int, limit : int) : int {\n\
   var i = 0;\n\
   while (i < n) {\n\
   var j = 0;\n\
   while (j < n) {\n\
   if (i * j > limit) { return i * 100 + j; }\n\
   j = j + 1;\n\
   }\n\
   i = i + 1;\n\
   }\n\
   return -1;\n\
   }\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < n; i = i + 1) {\n\
   if (i % 3 == 0) { continue; }\n\
   var j = 0;\n\
   while (true) {\n\
   j = j + 1;\n\
   if (j > i) { break; }\n\
   if (j % 2 == 0) { continue; }\n\
   s = s + j;\n\
   note(j);\n\
   }\n\
   if (s > 60) { break; }\n\
   }\n\
   return s * 1000 + hits * 10 + first_over(n, 20);\n\
   }"

let test_loops_fuel_pin () =
  check_fuel_pin "nested loops" ~least:loops_least_fuel (fun fuel ->
      Gelrun.interp (fresh_image loops_src) ~entry:"main" ~args:[| 12 |] ~fuel);
  match
    Gelrun.interp (fresh_image loops_src) ~entry:"main" ~args:[| 12 |]
      ~fuel:loops_least_fuel
  with
  | Ok v -> check_int "nested loops value" 72_631 v
  | r -> Alcotest.failf "nested loops: %s" (show_tier r)

(* ---------- the dispatch loop's exits and the stepped profile ---------- *)

(* One program that leaves the loop every way it can: calls that grow a
   frame slab ([small] is the first call at depth 1, then [wide]'s 11
   locals outgrow that slab) and host calls (the typed helpers over an
   array map and an LRU map), beside plain and fused instructions. *)
let exits_src =
  "extern fn map_lookup(int, int) : int;\n\
   extern fn map_update(int, int, int) : int;\n\
   extern fn map_contains(int, int) : int;\n\
   array a[8];\n\
   fn small(x : int) : int { return x + 1; }\n\
   fn wide(x : int) : int {\n\
   var a0 = x + 1; var a1 = a0 * 3; var a2 = a1 - x; var a3 = a2 + a0;\n\
   var a4 = a3 + 1; var a5 = a4 + a1; var a6 = a5 - 2; var a7 = a6 + a3;\n\
   var a8 = a7 + a2; var a9 = a8 + x;\n\
   return a9;\n\
   }\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 8; i = i + 1) {\n\
   map_update(0, i, i * n);\n\
   a[i] = map_lookup(0, i) + small(i);\n\
   map_update(1, i + n, a[i]);\n\
   s = s + map_lookup(1, i + n) + map_contains(0, i);\n\
   }\n\
   return s + wide(s);\n\
   }"

let exits_tiers =
  [
    ("bytecode-vm", fun i -> Stackvm.load_exn i);
    ("bytecode-opt", fun i -> Stackvm.load_opt_exn i);
    ("safe-lang-static", fun i -> Stackvm.load_static_exn i);
  ]

(* Fresh maps and a fresh image per run, since the program writes both. *)
let exits_prog = lazy (compile_ok exits_src)

let exits_image () =
  let maps =
    [|
      Graft_kernel.Graftmap.create_array ~name:"exits-array" 8;
      Graft_kernel.Graftmap.create_lru ~name:"exits-lru" 4;
    |]
  in
  match
    Link.link_fresh ~hosts:(Graft_core.Runners.map_hosts maps)
      (Lazy.force exits_prog)
  with
  | Ok image -> (maps, image)
  | Error msg -> Alcotest.failf "link error: %s" msg

(* One run's outcome, the fuel the session charged to Graftmeter, the
   final cells and the array map's contents. *)
let run_exits ?profile ~load ~fuel () =
  let maps, image = exits_image () in
  let s = Vm.create_session ?profile (load image) in
  let args = [| 3 |] in
  let fn = Gelrun.fn image "main" ~args in
  let fuel_cell =
    Graft_metrics.counter "graftkit_vm_fuel" [ ("tier", "interp") ]
  in
  let before = Graft_metrics.counter_value fuel_cell in
  let r =
    Graft_metrics.with_enabled true (fun () ->
        Gelrun.outcome (fun () -> Vm.run_session s ~fn ~args ~fuel))
  in
  ( r,
    Graft_metrics.counter_value fuel_cell - before,
    Array.copy (Memory.cells image.Link.mem),
    Array.init 8 (Graft_kernel.Graftmap.lookup maps.(0)) )

let test_loop_exits_every_budget () =
  (* The program must really reach every exit on some tier. *)
  let has name load pred =
    let _, image = exits_image () in
    if not (Array.exists pred (load image).Program.code) then
      Alcotest.failf "the program has no %s" name
  in
  let plain = List.assoc "bytecode-vm" exits_tiers
  and opt = List.assoc "bytecode-opt" exits_tiers in
  has "call" plain (function Opcode.Call _ -> true | _ -> false);
  has "host call" plain (function Opcode.Callext _ -> true | _ -> false);
  has "fused opcode" opt (fun op -> Opcode.width op > 1);
  let _, finish, _, _ = run_exits ~load:plain ~fuel:1_000_000 () in
  List.iter
    (fun (name, load) ->
      for fuel = 0 to finish + 1 do
        let ((r, used, cells, _) as unprofiled) = run_exits ~load ~fuel () in
        let pr = Graft_trace.Opprof.create ~names:Opcode.class_names in
        let ((r', _, _, _) as profiled) =
          run_exits ~profile:pr ~load ~fuel ()
        in
        if unprofiled <> profiled then
          Alcotest.failf "%s at fuel %d: %s unprofiled, %s profiled" name fuel
            (show_tier r) (show_tier r');
        (* Each opcode's profile fuel is its whole width, so a budget
           that runs out inside a fused opcode counts up to 3 units more
           than it charged; everywhere else the two are equal. *)
        let counted = Graft_trace.Opprof.total_fuel pr in
        (match r with
        | Error (`Fault Fault.Fuel_exhausted) ->
            check_int
              (Printf.sprintf "%s at fuel %d: used" name fuel)
              fuel used;
            if counted < used || counted > used + 3 then
              Alcotest.failf "%s at fuel %d: profile counts %d fuel" name fuel
                counted
        | _ ->
            check_int
              (Printf.sprintf "%s at fuel %d: profile fuel" name fuel)
              used counted);
        (* The JIT's parity obligation: it runs the static tier's
           program to the same outcome and memory at every budget. *)
        if name = "safe-lang-static" then begin
          let _, image = exits_image () in
          let j =
            Gelrun.jit image
              (Graft_jit.Jit.load_exn image)
              ~entry:"main" ~args:[| 3 |] ~fuel
          in
          if j <> r || Memory.cells image.Link.mem <> cells then
            Alcotest.failf "jit at fuel %d: %s, static tier %s" fuel
              (show_tier j) (show_tier r)
        end
      done)
    exits_tiers

(* A host call with no arguments pushes its result where the stack's
   top is, so it must check for overflow as every push does. [fill]
   runs [Vm.max_frames] frames deep, each above the leaf holding 16
   pending operands while it calls, and the leaf [leaf] more before its
   host call: at 16 the host call finds all [Vm.stack_size] slots
   full, and at 15 one is left. *)
let stack_top_src leaf =
  let nest n = String.concat "" (List.init n (fun _ -> "1 + (")) in
  Printf.sprintf
    "extern fn ticks() : int;\n\
     fn fill(n : int) : int {\n\
     if (n == 0) { return %sticks()%s; }\n\
     return %sfill(n - 1)%s;\n\
     }"
    (nest leaf) (String.make leaf ')') (nest 16) (String.make 16 ')')

let test_host_call_at_stack_top () =
  let hosts = [ { Link.hname = "ticks"; hfn = (fun _ _ -> 0) } ] in
  List.iter
    (fun (name, load) ->
      let run leaf =
        let image = fresh_image ~hosts (stack_top_src leaf) in
        Gelrun.vm image (load image) ~entry:"fill"
          ~args:[| Vm.max_frames - 1 |] ~fuel:1_000_000
      in
      (match run 15 with
      | Ok v -> check_int (name ^ ": one slot left") (Vm.stack_size - 1) v
      | r -> Alcotest.failf "%s, one slot left: %s" name (show_tier r));
      match run 16 with
      | Error (`Fault Fault.Stack_overflow) -> ()
      | r -> Alcotest.failf "%s, stack full: %s" name (show_tier r))
    exits_tiers

(* The walker's session keeps its frame slabs and staging area across
   runs, and a call's arguments are staged before its depth check, so a
   session must fault [Stack_overflow] exactly where a one-shot run and
   the stack VM do, including for recursion through call arguments. *)
let depth_src =
  "fn down(n : int) : int {\n\
   if (n == 0) { return 0; }\n\
   return 1 + down(n - 1);\n\
   }\n\
   fn add(a : int, b : int) : int { return a + b; }\n\
   fn nest(n : int) : int {\n\
   if (n == 0) { return 0; }\n\
   return add(nest(n - 1), add(1, 0));\n\
   }\n\
   fn main(n : int) : int {\n\
   return add(down(n), add(nest(add(n, 1)), down(add(1, add(n, 2)))));\n\
   }"

let test_walker_session_depths () =
  let image = fresh_image depth_src in
  let session = Interp.create_session image in
  let vm = Vm.create_session (Stackvm.load_exn (fresh_image depth_src)) in
  let walk ~entry ~args ~fuel =
    let fn = Gelrun.fn image entry ~args in
    Gelrun.outcome (fun () -> Interp.run_session session ~fn ~args ~fuel)
  in
  let check entry n expect =
    let fuel = 1_000_000 and args = [| n |] in
    let s = walk ~entry ~args ~fuel in
    let once = Gelrun.interp (fresh_image depth_src) ~entry ~args ~fuel in
    let fn = Gelrun.fn image entry ~args in
    let v = Gelrun.outcome (fun () -> Vm.run_session vm ~fn ~args ~fuel) in
    let label = Printf.sprintf "%s(%d)" entry n in
    if s <> once then
      Alcotest.failf "%s: session %s, one-shot %s" label (show_tier s)
        (show_tier once);
    if s <> expect then
      Alcotest.failf "%s: %s, expected %s" label (show_tier s)
        (show_tier expect);
    match (s, v) with
    | Ok a, Ok b when a = b -> ()
    | Error (`Fault a), Error (`Fault b) when a = b -> ()
    | _ ->
        Alcotest.failf "%s: walker %s, vm %s" label (show_tier s)
          (show_tier v)
  in
  (* [down n] and [nest n] run n + 1 frames deep. *)
  List.iter
    (fun depth ->
      let expect =
        if depth <= Interp.max_depth then Ok (depth - 1)
        else Error (`Fault Fault.Stack_overflow)
      in
      check "down" (depth - 1) expect;
      check "nest" (depth - 1) expect)
    [ Interp.max_depth - 1; Interp.max_depth; Interp.max_depth + 1 ];
  (* Calls nested in call arguments, after the faults above. *)
  check "main" 5 (Ok (5 + 6 + 8));
  check "main" 0 (Ok (0 + 1 + 3));
  (* Each run counts once, with the fuel it used, tier "ast". *)
  let cell name = Graft_metrics.counter name [ ("tier", "ast") ] in
  let count () =
    ( Graft_metrics.counter_value (cell "graftkit_vm_sessions"),
      Graft_metrics.counter_value (cell "graftkit_vm_fuel") )
  in
  let least = ref 0 in
  while
    walk ~entry:"main" ~args:[| 2 |] ~fuel:!least |> Result.is_error
  do
    incr least
  done;
  let s0, f0 = count () in
  Graft_metrics.with_enabled true (fun () ->
      List.iter
        (fun fuel ->
          ignore (walk ~entry:"main" ~args:[| 2 |] ~fuel))
        [ 1_000; 5 ]);
  let s1, f1 = count () in
  check_int "ast sessions counted" 2 (s1 - s0);
  check_int "ast fuel counted" (!least + 5) (f1 - f0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_stackvm"
    [
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "fibonacci" `Quick test_fib;
          Alcotest.test_case "word ops" `Quick test_word_ops;
          Alcotest.test_case "written-out word ops" `Quick
            test_word_ops_written_out;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "array init" `Quick test_array_initializer;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "short-circuit" `Quick test_short_circuit;
          Alcotest.test_case "extern" `Quick test_extern;
          Alcotest.test_case "void call" `Quick test_void_fn_call_stmt;
        ] );
      ( "faults",
        [
          Alcotest.test_case "div by zero" `Quick test_fault_div;
          Alcotest.test_case "array oob" `Quick test_fault_oob;
          Alcotest.test_case "fuel" `Quick test_fault_fuel;
          Alcotest.test_case "deep recursion" `Quick test_fault_recursion;
          Alcotest.test_case "read-only store" `Quick test_readonly_store_faults;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts compiled" `Quick test_verify_accepts_compiled;
          Alcotest.test_case "stack underflow" `Quick test_verify_stack_underflow;
          Alcotest.test_case "jump outside fn" `Quick test_verify_jump_outside_function;
          Alcotest.test_case "bad local" `Quick test_verify_bad_local;
          Alcotest.test_case "bad array id" `Quick test_verify_bad_array_id;
          Alcotest.test_case "reachable halt" `Quick test_verify_reachable_halt;
          Alcotest.test_case "falls off end" `Quick test_verify_falls_off_end;
          Alcotest.test_case "inconsistent heights" `Quick test_verify_inconsistent_heights;
          Alcotest.test_case "bad call target" `Quick test_verify_bad_call_target;
          Alcotest.test_case "bad global" `Quick test_verify_bad_global_address;
          Alcotest.test_case "bad array desc" `Quick test_verify_bad_array_descriptor;
          Alcotest.test_case "load rejects" `Quick test_load_rejects;
        ] );
      ( "verify-fused",
        [
          Alcotest.test_case "underflow" `Quick test_verify_fused_underflow;
          Alcotest.test_case "div by constant zero" `Quick
            test_verify_fused_div_by_constant_zero;
          Alcotest.test_case "div unprovable" `Quick
            test_verify_fused_div_unprovable;
          Alcotest.test_case "bad array id" `Quick
            test_verify_fused_bad_array_id;
          Alcotest.test_case "bad local" `Quick test_verify_fused_bad_local;
          Alcotest.test_case "jump outside fn" `Quick
            test_verify_fused_jump_outside;
          Alcotest.test_case "fused back edge terminates" `Quick
            test_verify_fused_back_edge;
          Alcotest.test_case "pass-1 heights" `Quick test_verify_heights;
          Alcotest.test_case "opcode facts" `Quick test_opcode_facts;
        ] );
      ( "widening",
        [
          Alcotest.test_case "nested loops keep the outer range" `Quick
            test_widen_nested_loops;
          Alcotest.test_case "uneven arms merge before the back edge" `Quick
            test_widen_uneven_arms;
          Alcotest.test_case "loop re-entry restarts the count" `Quick
            test_widen_reentry_resets;
          Alcotest.test_case "1,000-iteration counted loop" `Quick
            test_widen_long_loop;
          Alcotest.test_case "MD5 verify allocation" `Quick
            test_widen_md5_allocation;
        ] );
      ("disasm", [ Alcotest.test_case "renders" `Quick test_disasm ]);
      ( "differential",
        [ Alcotest.test_case "fixed programs" `Quick test_differential ]
        @ qc [ prop_differential_expr; prop_verifier_total_and_safe ] );
      ( "opt-tier",
        [
          Alcotest.test_case "peephole fuses" `Quick test_peephole_fuses;
          Alcotest.test_case "fused forms disassemble and re-verify" `Quick
            test_peephole_verifier_roundtrip;
          Alcotest.test_case "tiers agree" `Quick test_tiers_differential;
          Alcotest.test_case "fuel parity at every budget" `Quick
            test_fuel_parity_sessions;
          Alcotest.test_case "fused operators written out" `Quick
            test_fused_ops_written_out;
        ]
        @ qc [ prop_tiers_agree_any_fuel ] );
      ( "walker",
        [
          Alcotest.test_case "control flow agrees across tiers" `Quick
            test_control_flow_agrees;
          Alcotest.test_case "MD5 fuel pin" `Quick test_md5_fuel_pin;
          Alcotest.test_case "nested-loop fuel pin" `Quick test_loops_fuel_pin;
          Alcotest.test_case "session depths and nested calls" `Quick
            test_walker_session_depths;
        ] );
      ( "loop exits",
        [
          Alcotest.test_case "every exit at every budget, profiled or not"
            `Quick test_loop_exits_every_budget;
          Alcotest.test_case "host call at the stack's top" `Quick
            test_host_call_at_stack_top;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "initialiser entry discipline" `Quick
            test_bounds_entry_discipline;
          Alcotest.test_case "certified windows survive fusion" `Quick
            test_bounded_opt_certified;
        ] );
    ]
