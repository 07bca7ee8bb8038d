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
  match Vm.run p ~entry ~args ~fuel with
  | Ok v -> v
  | Error (`Fault f) -> Alcotest.failf "vm fault: %s" (Fault.to_string f)
  | Error (`Bad_entry m) -> Alcotest.failf "bad entry: %s" m

let vm_fault ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) src =
  let image = fresh_image src in
  let p = Stackvm.load_exn image in
  match Vm.run p ~entry ~args ~fuel with
  | Ok v -> Alcotest.failf "expected fault, got %d" v
  | Error (`Fault f) -> f
  | Error (`Bad_entry m) -> Alcotest.failf "bad entry: %s" m

(* Differential: run [entry args] through both engines, expect equal. *)
let both ?(entry = "main") ?(args = [||]) ?(fuel = 50_000_000) src =
  let ref_image = fresh_image src in
  let ref_result = Interp.run ref_image ~entry ~args ~fuel in
  let vm_image = fresh_image src in
  let p = Stackvm.load_exn vm_image in
  let vm_result = Vm.run p ~entry ~args ~fuel in
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
  let hosts = [ { Link.hname = "twice"; hfn = (fun a -> 2 * a.(0)) } ] in
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
  match Vm.run p ~entry:"main" ~args:[||] ~fuel:1000 with
  | Error (`Fault (Fault.Protection _)) -> ()
  | _ -> Alcotest.fail "expected protection fault"

(* ---------- verifier ---------- *)

let trivial_arrays = [||]

let mkprog ?(funcs = [||]) ?(arrays = trivial_arrays) ?(ext_arity = [||])
    ?(ncells = 16) ?(proofs = [||]) ?(maps = [||]) ?(loop_bounds = [||]) code =
  {
    Program.code;
    funcs;
    arrays;
    host = Array.map (fun _ -> fun _ -> 0) ext_arity;
    ext_arity;
    ext_names = Array.map (fun _ -> "") ext_arity;
    cells = Array.make ncells 0;
    maps;
    proofs;
    loop_bounds;
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
      let r1 = Interp.run i1 ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      let i2 = fresh_image src in
      let p = Stackvm.load_exn i2 in
      let r2 = Vm.run p ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      match (r1, r2) with Ok x, Ok y -> x = y | _ -> false)

(* The verifier must be total: random instruction sequences either
   verify or are rejected with a message — never an exception — and
   anything it accepts must run without crashing the host. *)
let random_instr rng ncode =
  let open Opcode in
  match Graft_util.Prng.int rng 14 with
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
  | _ -> Ne

let prop_verifier_total_and_safe =
  QCheck.Test.make ~name:"verifier total; accepted code runs safely" ~count:300
    QCheck.(pair int64 (int_range 1 24))
    (fun (seed, n) ->
      let rng = Graft_util.Prng.create seed in
      let code = Array.init n (fun _ -> random_instr rng n) in
      let p =
        {
          Program.code;
          funcs = [| { Program.name = "f"; nargs = 0; nlocals = 4; entry = 0; code_end = n } |];
          arrays = [||];
          host = [||];
          ext_arity = [||];
          ext_names = [||];
          cells = Array.make 16 0;
          maps = [||];
          proofs = [||];
          loop_bounds = [||];
        }
      in
      match Verify.verify p with
      | Error _ -> true
      | Ok () -> (
          (* Verified code must execute without host-level surprises. *)
          match Vm.run p ~entry:"f" ~args:[||] ~fuel:10_000 with
          | Ok _ | Error (`Fault _) -> true
          | Error (`Bad_entry _) -> false))

(* ---------- the optimized tier: peephole + TOS-caching loop ---------- *)

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
  let base = Vm.run (Stackvm.load_exn (fresh_image src)) ~entry:"main" ~args ~fuel in
  let opt =
    Vm.run_opt (Stackvm.load_opt_exn (fresh_image src)) ~entry:"main" ~args ~fuel
  in
  (base, opt)

let show_tier = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "fault " ^ Fault.to_string f
  | Error (`Bad_entry m) -> "bad entry " ^ m

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

(* Both dispatch loops write the [Wordops] semantics out per opcode;
   hold each written-out word opcode to the reference interpreter,
   which calls [Wordops], over the whole int range. *)
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

let test_word_ops_written_out () =
  let p = Stackvm.load_exn (fresh_image word_ops_src) in
  List.iter
    (fun op ->
      if not (Array.mem op p.Program.code) then
        Alcotest.failf "no %s in the plain code"
          Opcode.class_names.(Opcode.index op))
    Opcode.[ Wadd; Wsub; Wmul; Wshl; Wshr; Wbnot; Wneg; Wmask ];
  let reference = fresh_image word_ops_src in
  let s = Vm.create_session p in
  let r = Graft_util.Prng.create 0x3D9L in
  let edges = [| 0; 1; -1; 31; 32; 0xFFFFFFFF; 0x80000000; max_int; min_int |] in
  let ne = Array.length edges in
  for i = 0 to 299 do
    (* Every pair of edge operands first, then random ones. *)
    let a, b =
      if i < ne * ne then (edges.(i / ne), edges.(i mod ne))
      else
        ( Int64.to_int (Graft_util.Prng.next r),
          Int64.to_int (Graft_util.Prng.next r) )
    in
    for op = 0 to 7 do
      let args = [| a; b; op |] in
      let expect = Interp.run reference ~entry:"main" ~args ~fuel:1000 in
      let plain = Vm.run_session s ~entry:"main" ~args ~fuel:1000 in
      let opt = Vm.run_session_opt s ~entry:"main" ~args ~fuel:1000 in
      if plain <> expect || opt <> expect then
        Alcotest.failf "op %d on (%d, %d): interp %s, plain %s, opt %s" op a b
          (show_tier expect) (show_tier plain) (show_tier opt)
    done
  done

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

(* ---------- bounded loading: certificates under the optimizer ---------- *)

let expect_reject_bounded p fragment =
  match Verify.verify ~bounded:true p with
  | Ok () -> Alcotest.fail "bounded verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

(* A certified loop may be entered from outside only through its
   initialiser's first instruction (the [Const]). A jump that lands one
   instruction later — on the [Store_local] — would seed the counter
   from whatever the jumper left on the stack, and the certificate's
   closed-form trip count would not cover that path. *)
let bounds_entry_program ~outside_target =
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
  let cert =
    {
      Graft_analysis.Loopbound.c_counter = 0;
      c_init = 0;
      c_limit = 4;
      c_cmp = Ir.Lt;
      c_step = 1;
      c_trips = 4;
    }
  in
  mkprog
    ~funcs:[| fdesc ~nlocals:1 ~entry:0 ~code_end:15 "main" |]
    ~loop_bounds:[| (12, cert) |]
    code

let test_bounds_entry_discipline () =
  (* Entering at the initialiser's Const re-initialises the counter:
     legal. *)
  (match Verify.verify ~bounded:true (bounds_entry_program ~outside_target:2) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "entry through the initialiser rejected: %s" m);
  (* Entering at the Store_local skips the Const and seeds the counter
     from the jumper's stack: must be rejected... *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:3)
    "enters a certified loop";
  (* ...as must entering at the loop head, past the whole initialiser. *)
  expect_reject_bounded
    (bounds_entry_program ~outside_target:4)
    "enters a certified loop"

(* Under bounded loading the optimizer must neither drop certificates
   nor break their windows: load_opt fuses the loop body, remaps the
   certificate to the fused backedge, and the bounded verifier
   re-derives the bound from the fused code it ships. *)
let test_bounded_opt_certified () =
  let plain = Stackvm.load_exn ~bounded:true (fresh_image loopy_src) in
  let opt = Stackvm.load_opt_exn ~bounded:true (fresh_image loopy_src) in
  Alcotest.(check bool) "certificate survives fusion" true
    (Array.length opt.Program.loop_bounds = Array.length plain.Program.loop_bounds
    && Array.length opt.Program.loop_bounds > 0);
  Alcotest.(check bool) "fusion still shortens certified code" true
    (Array.length opt.Program.code < Array.length plain.Program.code);
  (match Verify.verify ~bounded:true opt with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fused certified program fails re-verify: %s" m);
  (* The remapped backedge still points at the backward jump. *)
  Array.iter
    (fun (pc, _) ->
      match opt.Program.code.(pc) with
      | Opcode.Jmp t when t <= pc -> ()
      | op ->
          Alcotest.failf "certificate pc %d is %s, not a backward jmp" pc
            (Opcode.to_string op))
    opt.Program.loop_bounds;
  List.iter
    (fun n ->
      let base = Vm.run plain ~entry:"main" ~args:[| n |] ~fuel:1_000_000 in
      let fused = Vm.run_opt opt ~entry:"main" ~args:[| n |] ~fuel:1_000_000 in
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
  let run_tier load runner src args fuel =
    let image = fresh_image src in
    let s = Vm.create_session (load image) in
    let r = runner s ~entry:"main" ~args ~fuel in
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
              let r1, m1 = run_tier Stackvm.load_exn Vm.run_session src args fuel in
              let r2, m2 =
                run_tier Stackvm.load_opt_exn Vm.run_session_opt src args fuel
              in
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
        ]
        @ qc [ prop_tiers_agree_any_fuel ] );
      ( "bounded",
        [
          Alcotest.test_case "initialiser entry discipline" `Quick
            test_bounds_entry_discipline;
          Alcotest.test_case "certificates survive fusion" `Quick
            test_bounded_opt_certified;
        ] );
    ]
