(* Tests for graft_regvm: compiler, SFI instrumentation, linear-time
   verifier, machine, and sandbox containment. *)

open Graft_gel
open Graft_mem
open Graft_regvm

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let compile_ok src =
  match Gel.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "compile error: %s" (Srcloc.to_string e)

(* Link into a fresh power-of-two memory so the whole memory can be the
   sandbox segment. *)
let image_pow2 ?(size = 4096) ?hosts src =
  let mem = Memory.create size in
  match
    Link.link (compile_ok src) ~mem ~shared:[]
      ~hosts:(Option.value hosts ~default:[])
  with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link error: %s" msg

let run ?(protection = Program.Write_jump) ?(entry = "main") ?(args = [||])
    ?(fuel = 10_000_000) ?hosts src =
  let image = image_pow2 ?hosts src in
  let p = Regvm.load_exn ~protection image in
  match Gelrun.machine image p ~entry ~args ~fuel with
  | Ok v -> v
  | Error (`Fault f) -> Alcotest.failf "fault: %s" (Fault.to_string f)

let run_fault ?(protection = Program.Write_jump) ?(entry = "main")
    ?(args = [||]) ?(fuel = 10_000_000) src =
  let image = image_pow2 src in
  let p = Regvm.load_exn ~protection image in
  match Gelrun.machine image p ~entry ~args ~fuel with
  | Ok v -> Alcotest.failf "expected fault, got %d" v
  | Error (`Fault f) -> f

let check_int = Alcotest.(check int)

(* ---------- execution parity ---------- *)

let test_arith () = check_int "arith" 7 (run "fn main() : int { return 1 + 2 * 3; }")

let test_factorial () =
  check_int "10!" 3628800
    (run ~entry:"fact" ~args:[| 10 |]
       "fn fact(n : int) : int { if (n <= 1) { return 1; } return n * fact(n - 1); }")

let test_fib () =
  check_int "fib 20" 6765
    (run ~entry:"fib" ~args:[| 20 |]
       "fn fib(n : int) : int {\n\
        var a = 0; var b = 1;\n\
        for (var i = 0; i < n; i = i + 1) { var t = a + b; a = b; b = t; }\n\
        return a;\n\
        }")

let test_word_ops () =
  check_int "word wrap" 0
    (run "fn main() : int { var w : word = 0xFFFFFFFF; return int(w + 1); }");
  check_int "word rot" 0x80000000
    (run
       "fn main() : int { var x : word = 1; var n = 31;\n\
        return int((x << n) | (x >>> (32 - n))); }")

let test_arrays_and_globals () =
  check_int "arrays+globals" 163
    (run
       "var g : int = 100;\n\
        array a[3];\n\
        fn main() : int { a[0] = 10; a[1] = 20; a[2] = 30; g = g + 3;\n\
        return g + a[0] + a[1] + a[2]; }")

let test_array_initializer () =
  check_int "init" 0xef
    (run
       "array t[4] : word = { 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476 };\n\
        fn main() : int { return int(t[1] >> 24); }")

let test_break_continue () =
  check_int "break/continue" 25
    (run
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
  (* a[big] under SFI does not fault, it lands in the sandbox; use a
     global side effect to detect unwanted evaluation instead. *)
  check_int "sc and" 0
    (run
       "var hits : int = 0;\n\
        fn touch() : int { hits = hits + 1; return 1; }\n\
        fn main() : int { if (false && touch() == 1) { return 99; } return \
        hits; }");
  check_int "sc or" 0
    (run
       "var hits : int = 0;\n\
        fn touch() : int { hits = hits + 1; return 1; }\n\
        fn main() : int { if (true || touch() == 1) { return hits; } return \
        99; }")

let test_extern () =
  let hosts = [ { Link.hname = "twice"; hfn = (fun a i -> 2 * a.(i)) } ] in
  check_int "extern" 14
    (run ~hosts
       "extern fn twice(int) : int;\nfn main() : int { return twice(7); }")

let test_all_protections_agree () =
  let src =
    "array a[16];\n\
     fn main(seed : int) : int {\n\
     for (var i = 0; i < 16; i = i + 1) { a[i] = seed * i + 3; }\n\
     var s = 0;\n\
     for (var i = 0; i < 16; i = i + 1) { s = s + a[i] * i; }\n\
     return s;\n\
     }"
  in
  let results =
    List.map
      (fun prot -> run ~protection:prot ~args:[| 17 |] src)
      [ Program.Unprotected; Program.Write_jump; Program.Full ]
  in
  match results with
  | [ a; b; c ] ->
      check_int "unprot = wj" a b;
      check_int "wj = full" b c
  | _ -> assert false

(* ---------- faults ---------- *)

let test_fault_div () =
  match run_fault ~args:[| 0 |] "fn main(a : int) : int { return 1 / a; }" with
  | Fault.Division_by_zero -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_fuel () =
  match run_fault ~fuel:500 "fn main() : int { while (true) { } return 0; }" with
  | Fault.Fuel_exhausted -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

let test_fault_recursion () =
  match
    run_fault ~entry:"f" ~args:[| 0 |] "fn f(n : int) : int { return f(n + 1); }"
  with
  | Fault.Stack_overflow -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

(* A session makes the frame at each depth on the first call that
   reaches it; a deep recursion still meets the frame limit after 256
   counted entries (the entry and 255 calls), the next call faulting. *)
let test_recursion_depth_count () =
  let src =
    "var calls : int = 0;\n\
     fn f(n : int) : int { calls = calls + 1; return f(n + 1); }"
  in
  List.iter
    (fun protection ->
      let image = image_pow2 src in
      let p = Regvm.load_exn ~protection image in
      (match Gelrun.machine image p ~entry:"f" ~args:[| 0 |] ~fuel:10_000_000 with
      | Error (`Fault Fault.Stack_overflow) -> ()
      | Error (`Fault f) -> Alcotest.failf "wrong fault %s" (Fault.to_string f)
      | _ -> Alcotest.fail "recursion did not fault");
      check_int
        (Program.protection_to_string protection ^ " calls before overflow")
        256
        (Memory.cells image.Link.mem).(image.Link.global_base))
    [ Program.Write_jump; Program.Full ]

(* Words a call allocates, the direct major-heap ones included (the
   counters see those after a minor collection). *)
let words_allocated f =
  Gc.minor ();
  let m0, p0, j0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let m1, p1, j1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)

let test_session_is_lean () =
  let image = image_pow2 "fn main() : int { return 1; }" in
  let p = Regvm.load_exn image in
  let words = words_allocated (fun () -> Machine.create_session p) in
  if words >= 1000.0 then
    Alcotest.failf "creating a session allocated %.0f words (limit 1000)" words;
  (* The first entry makes frame 0 and runs. *)
  let fn = Gelrun.fn image "main" ~args:[||] in
  match
    Gelrun.outcome (fun () ->
        Machine.run_session (Machine.create_session p) ~fn ~args:[||] ~fuel:100)
  with
  | Ok v -> check_int "first entry" 1 v
  | Error _ -> Alcotest.fail "first entry failed"

(* The elided MD5 load runs the interval analysis twice (instrumenter
   and verifier). Its state tracks the registers the code names, so a
   load allocates under a quarter of the 620k-658k minor words that
   tracking all 128 registers costs. *)
let test_elided_load_allocation () =
  let src = Graft_grafts.Gel_sources.md5 ~data_cells:384 in
  let env =
    Graft_core.Runners.gel_env Graft_core.Technology.Sfi_full src
      [ ("data", 384, true); ("digest", 16, true) ]
  in
  List.iter
    (fun protection ->
      let w0 = Gc.minor_words () in
      ignore
        (Sys.opaque_identity
           (Regvm.load_exn ~elide:true ~protection env.Graft_core.Runners.image));
      let words = Gc.minor_words () -. w0 in
      if words >= 155_000.0 then
        Alcotest.failf "elided %s md5 load allocated %.0f minor words"
          (Program.protection_to_string protection)
          words)
    [ Program.Write_jump; Program.Full ]

let test_unprotected_wild_read_machine_fault () =
  (* With no SFI and no bounds checks, a wild access escapes the graft
     entirely and hits the machine's memory limit: the "kernel crash"
     the paper's unsafe-C technology risks. *)
  match
    run_fault ~protection:Program.Unprotected ~args:[| 1_000_000 |]
      "array a[4];\nfn main(i : int) : int { return a[i]; }"
  with
  | Fault.Out_of_bounds _ -> ()
  | f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)

(* ---------- sandbox containment ---------- *)

(* Kernel memory at cells [1, 1024); graft segment [1024, 2048). *)
let containment_setup src =
  let mem = Memory.create 2048 in
  let kernel =
    Memory.alloc mem ~name:"kernel_data" ~len:1023 ~perm:Memory.perm_none
  in
  let sentinel = kernel.Memory.base + 500 in
  (Memory.cells mem).(sentinel) <- 0xBEEF;
  let image =
    match Link.link (compile_ok src) ~mem ~shared:[] ~hosts:[] with
    | Ok image -> image
    | Error msg -> Alcotest.failf "link: %s" msg
  in
  let segment = { Program.base = 1024; size = 1024 } in
  (mem, sentinel, image, segment)

let evil_store_src =
  (* a[i] with negative i reaches below the segment into kernel data. *)
  "array a[8];\nfn main(i : int) : int { a[i] = 66; return 0; }"

let test_unprotected_store_corrupts_kernel () =
  let mem, sentinel, image, segment = containment_setup evil_store_src in
  let p = Compile.compile image ~segment in
  let a_base = image.Link.arr_base.(0) in
  let evil_index = sentinel - a_base in
  (match Gelrun.machine image p ~entry:"main" ~args:[| evil_index |] ~fuel:10_000 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unprotected store should land in kernel memory");
  check_int "kernel cell corrupted" 66 (Memory.cells mem).(sentinel)

let test_sfi_store_confined () =
  let mem, sentinel, image, segment = containment_setup evil_store_src in
  let p = Compile.compile image ~segment in
  let p = Sfi.instrument p ~protection:Program.Write_jump in
  (match Verify.verify p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m);
  let a_base = image.Link.arr_base.(0) in
  let evil_index = sentinel - a_base in
  (match Gelrun.machine image p ~entry:"main" ~args:[| evil_index |] ~fuel:10_000 with
  | Ok _ -> ()
  | Error (`Fault f) -> Alcotest.failf "sandboxed store faulted: %s" (Fault.to_string f));
  check_int "kernel cell intact" 0xBEEF (Memory.cells mem).(sentinel);
  (* The masked write landed inside the segment. *)
  let seg_cells =
    Array.sub (Memory.cells mem) segment.Program.base segment.Program.size
  in
  Alcotest.(check bool) "write landed in segment" true
    (Array.exists (fun v -> v = 66) seg_cells)

let evil_read_src =
  "array a[8];\nfn main(i : int) : int { return a[i]; }"

let test_write_jump_does_not_stop_reads () =
  (* The Omniware beta the paper measured had no read protection; our
     Write_jump mode reproduces that: the evil read sees kernel data. *)
  let mem, sentinel, image, segment = containment_setup evil_read_src in
  ignore mem;
  let p = Compile.compile image ~segment in
  let p = Sfi.instrument p ~protection:Program.Write_jump in
  let a_base = image.Link.arr_base.(0) in
  let evil_index = sentinel - a_base in
  match Gelrun.machine image p ~entry:"main" ~args:[| evil_index |] ~fuel:10_000 with
  | Ok v -> check_int "kernel data leaked" 0xBEEF v
  | Error _ -> Alcotest.fail "read should succeed under write+jump"

let test_full_protection_confines_reads () =
  let mem, sentinel, image, segment = containment_setup evil_read_src in
  ignore (mem, sentinel);
  let p = Compile.compile image ~segment in
  let p = Sfi.instrument p ~protection:Program.Full in
  (match Verify.verify p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m);
  let a_base = image.Link.arr_base.(0) in
  let evil_index = sentinel - a_base in
  match Gelrun.machine image p ~entry:"main" ~args:[| evil_index |] ~fuel:10_000 with
  | Ok v ->
      Alcotest.(check bool) "read confined to segment" true (v <> 0xBEEF)
  | Error (`Fault f) -> Alcotest.failf "fault: %s" (Fault.to_string f)

(* ---------- instrumentation overhead ---------- *)

let store_heavy_src =
  "array a[64];\n\
   fn main() : int {\n\
   for (var i = 0; i < 64; i = i + 1) { a[i] = i * 2; }\n\
   return a[63];\n\
   }"

let icount ~protection src =
  let image = image_pow2 src in
  let s = Machine.create_session (Regvm.load_exn ~protection image) in
  let fn = Gelrun.fn image "main" ~args:[||] in
  match
    Gelrun.outcome (fun () ->
        Machine.run_session s ~fn ~args:[||] ~fuel:10_000_000)
  with
  | Ok _ -> Machine.instructions s
  | Error _ -> Alcotest.fail "run failed"

let test_sfi_instruction_overhead () =
  let base = icount ~protection:Program.Unprotected store_heavy_src in
  let wj = icount ~protection:Program.Write_jump store_heavy_src in
  let full = icount ~protection:Program.Full store_heavy_src in
  Alcotest.(check bool) "wj > base" true (wj > base);
  Alcotest.(check bool) "full >= wj" true (full >= wj);
  (* 64 dynamic stores, 3 extra instructions each. *)
  check_int "wj overhead = 3 per store" (base + (3 * 64)) wj

let test_results_identical_across_protection () =
  check_int "unprot" 126 (run ~protection:Program.Unprotected store_heavy_src);
  check_int "wj" 126 (run ~protection:Program.Write_jump store_heavy_src);
  check_int "full" 126 (run ~protection:Program.Full store_heavy_src)

(* ---------- verifier ---------- *)

let expect_reject p fragment =
  match Verify.verify p with
  | Ok () -> Alcotest.fail "verifier accepted bad code"
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let instrumented src =
  let image = image_pow2 src in
  let p = Compile.compile image ~segment:(Sfi.segment_of_memory image.Link.mem) in
  Sfi.instrument p ~protection:Program.Write_jump

let test_verify_accepts_instrumented () =
  let p = instrumented store_heavy_src in
  match Verify.verify p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "rejected good code: %s" m

let test_verify_rejects_raw_store () =
  let p = instrumented store_heavy_src in
  (* Tamper: find a sandboxed store and replace it with a raw one, as a
     malicious compiler would. *)
  let code = Array.copy p.Program.code in
  let tampered = ref false in
  Array.iteri
    (fun i instr ->
      match instr with
      | Isa.St (rb, rs, _) when (not !tampered) && rb = Isa.reg_sandbox ->
          code.(i) <- Isa.St (Isa.reg_scratch, rs, 0);
          tampered := true
      | _ -> ())
    code;
  Alcotest.(check bool) "tampered" true !tampered;
  expect_reject { p with Program.code } "sandbox register"

let test_verify_rejects_wrong_mask () =
  let p = instrumented store_heavy_src in
  let code = Array.copy p.Program.code in
  let tampered = ref false in
  Array.iteri
    (fun i instr ->
      match instr with
      | Isa.Andi (rd, rs, _) when (not !tampered) && rd = Isa.reg_sandbox ->
          code.(i) <- Isa.Andi (rd, rs, 0xFFFFFF);
          tampered := true
      | _ -> ())
    code;
  Alcotest.(check bool) "tampered" true !tampered;
  expect_reject { p with Program.code } "wrong mask"

let test_verify_rejects_sandbox_reg_abuse () =
  let p = instrumented store_heavy_src in
  let code = Array.copy p.Program.code in
  (* Prepend is hard; overwrite the first instruction instead with a
     write to r1. *)
  code.(0) <- Isa.Movi (Isa.reg_sandbox, 7);
  expect_reject { p with Program.code } "non-masking write"

let test_verify_rejects_write_to_zero () =
  let p = instrumented store_heavy_src in
  let code = Array.copy p.Program.code in
  code.(0) <- Isa.Movi (Isa.reg_zero, 7);
  expect_reject { p with Program.code } "zero register"

let test_verify_rejects_branch_into_sequence () =
  let p = instrumented store_heavy_src in
  let code = Array.copy p.Program.code in
  (* Find a store through r1 and point a branch straight at it. *)
  let target = ref (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Isa.St (rb, _, _) when !target < 0 && rb = Isa.reg_sandbox ->
          target := i
      | _ -> ())
    code;
  Alcotest.(check bool) "found store" true (!target >= 0);
  code.(0) <- Isa.Br !target;
  expect_reject { p with Program.code } "masking sequence"

let test_verify_rejects_bad_branch_target () =
  let p = instrumented store_heavy_src in
  let code = Array.copy p.Program.code in
  code.(0) <- Isa.Br 100000;
  expect_reject { p with Program.code } "out of range"

let test_verify_rejects_call_arity () =
  let image = image_pow2 "fn f(a : int) : int { return a; }\nfn main() : int { return f(1); }" in
  let p = Compile.compile image ~segment:(Sfi.segment_of_memory image.Link.mem) in
  let code = Array.copy p.Program.code in
  let tampered = ref false in
  Array.iteri
    (fun i instr ->
      match instr with
      | Isa.Call { f; dst; argbase; nargs = _ } when not !tampered ->
          code.(i) <- Isa.Call { f; dst; argbase; nargs = 0 };
          tampered := true
      | _ -> ())
    code;
  Alcotest.(check bool) "tampered" true !tampered;
  expect_reject { p with Program.code } "args"

(* Every register an instruction reads, and every register a call's
   arguments land in, must exist: the machine's register file is a
   bounds-checked array, so a verified program reading r200 would raise
   instead of faulting. *)
let test_verify_rejects_register_range () =
  let p = instrumented store_heavy_src in
  let main =
    match Ir.entry (compile_ok store_heavy_src) "main" ~nargs:0 with
    | Ok f -> p.Program.funcs.(f)
    | Error msg -> Alcotest.fail msg
  in
  let edit pc instr =
    let code = Array.copy p.Program.code in
    code.(pc) <- instr;
    { p with Program.code }
  in
  let at = main.Program.entry in
  expect_reject (edit at (Isa.Mov (4, 200))) "r200 out of range";
  expect_reject (edit at (Isa.Ret 200)) "r200 out of range";
  let big =
    { Program.name = "big"; nargs = 126; entry = at; code_end = main.Program.code_end }
  in
  let p' = edit at (Isa.Call { f = Array.length p.Program.funcs; dst = 4; argbase = 0; nargs = 126 }) in
  expect_reject
    { p' with Program.funcs = Array.append p'.Program.funcs [| big |] }
    "argument block overflows"

let test_load_rejects_tampered () =
  (* End-to-end: Regvm.load refuses a program whose memory is not a
     power of two (cannot build a mask). *)
  let mem = Memory.create 3000 in
  let image =
    match Link.link (compile_ok "fn main() : int { return 0; }") ~mem ~shared:[] ~hosts:[] with
    | Ok i -> i
    | Error m -> Alcotest.failf "link: %s" m
  in
  match Regvm.load image with
  | Error msg -> Alcotest.(check bool) "mentions power" true (contains msg "power")
  | Ok _ -> Alcotest.fail "should reject non-pow2 memory"

let test_register_exhaustion_rejected () =
  (* A pathologically deep expression exceeds the register file; the
     loader must refuse it cleanly (a real compiler would spill). *)
  (* Right-nested with constant left operands: each level holds one
     live temporary while the right subtree is evaluated. *)
  let rec build n = if n = 0 then "a" else Printf.sprintf "(1 + %s)" (build (n - 1)) in
  let src = Printf.sprintf "fn main(a : int) : int { return %s; }" (build 200) in
  let image = image_pow2 src in
  (match Regvm.load image with
  | Error msg -> Alcotest.(check bool) "mentions registers" true (contains msg "register")
  | Ok _ -> Alcotest.fail "should refuse");
  (* The stack VM handles the same program fine (1024-deep operand stack). *)
  let image2 = image_pow2 src in
  let p = Graft_stackvm.Stackvm.load_exn image2 in
  match Gelrun.vm image2 p ~entry:"main" ~args:[| 1 |] ~fuel:100_000 with
  | Ok v -> Alcotest.(check int) "stackvm result" 201 v
  | Error _ -> Alcotest.fail "stackvm should run it"

(* Locals live in registers and are never spilled: a function with
   more locals than the registers above [Isa.reg_base] is refused by
   name and local count, not as a too-deep expression. *)
let test_too_many_locals_rejected () =
  let src n =
    let b = Buffer.create 2048 in
    Buffer.add_string b "fn wide() : int {\n";
    for i = 0 to n - 1 do
      Printf.bprintf b "var x%d : int = %d;\n" i i
    done;
    Printf.bprintf b "return x0 + x%d;\n}\n" (n - 1);
    Buffer.contents b
  in
  (match Regvm.load ~protection:Program.Write_jump (image_pow2 (src 130)) with
  | Error msg ->
      Alcotest.(check bool)
        ("names the function and its local count: " ^ msg)
        true
        (contains msg "wide" && contains msg "130 locals")
  | Ok _ -> Alcotest.fail "130 locals should not load");
  check_int "100 locals" 99 (run ~entry:"wide" (src 100))

(* ---------- disasm ---------- *)

let test_disasm () =
  let p = instrumented store_heavy_src in
  let s = Disasm.program p in
  Alcotest.(check bool) "shows masking" true (contains s "andi r1");
  Alcotest.(check bool) "shows protection" true (contains s "write+jump")

(* ---------- differential vs reference interpreter ---------- *)

let both ?(entry = "main") ?(args = [||]) ?(fuel = 50_000_000) src =
  let i1 = image_pow2 src in
  let r1 = Gelrun.interp i1 ~entry ~args ~fuel in
  let i2 = image_pow2 src in
  let p = Regvm.load_exn ~protection:Program.Write_jump i2 in
  let r2 = Gelrun.machine i2 p ~entry ~args ~fuel in
  match (r1, r2) with
  | Ok a, Ok b -> if a <> b then Alcotest.failf "interp=%d regvm=%d" a b
  | Error (`Fault fa), Error (`Fault fb) ->
      ignore (fa, fb) (* same failure class not guaranteed without bounds checks *)
  | Ok a, Error (`Fault f) ->
      Alcotest.failf "interp=%d but regvm faulted: %s" a (Fault.to_string f)
  | Error (`Fault f), Ok b ->
      Alcotest.failf "interp faulted (%s) but regvm=%d" (Fault.to_string f) b

let test_differential () =
  let r = Graft_util.Prng.create 0x5EC0DE5L in
  for _ = 1 to 20 do
    both
      ~args:[| 1 + Graft_util.Prng.int r 100000 |]
      "fn main(n : int) : int {\n\
       var steps = 0;\n\
       while (n != 1 && steps < 1000) {\n\
       if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n\
       steps = steps + 1;\n\
       }\n\
       return steps;\n\
       }";
    both
      ~args:[| Graft_util.Prng.int r 0x40000000; Graft_util.Prng.int r 0x40000000 |]
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
       }";
    both
      ~args:[| Graft_util.Prng.int r 3; Graft_util.Prng.int r 4 |]
      "fn ack(m : int, n : int) : int {\n\
       if (m == 0) { return n + 1; }\n\
       if (n == 0) { return ack(m - 1, 1); }\n\
       return ack(m - 1, ack(m, n - 1));\n\
       }\n\
       fn main(m : int, n : int) : int { return ack(m, n); }"
  done

let prop_differential =
  QCheck.Test.make ~name:"random inputs: regvm = interp" ~count:100
    QCheck.(pair (int_range 0 1000000) (int_range 0 1000000))
    (fun (a, b) ->
      let src =
        "array buf[32];\n\
         fn main(a : int, b : int) : int {\n\
         for (var i = 0; i < 32; i = i + 1) { buf[i] = (a * i) ^ (b >> (i & \
         7)); }\n\
         var s = 0;\n\
         for (var i = 0; i < 32; i = i + 1) { s = s + buf[i] * (i + 1); }\n\
         return s;\n\
         }"
      in
      let i1 = image_pow2 src in
      let r1 = Gelrun.interp i1 ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      let i2 = image_pow2 src in
      let p = Regvm.load_exn i2 in
      let r2 = Gelrun.machine i2 p ~entry:"main" ~args:[| a; b |] ~fuel:1_000_000 in
      match (r1, r2) with
      | Ok x, Ok y -> x = y
      | _ -> false)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_regvm"
    [
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "fibonacci" `Quick test_fib;
          Alcotest.test_case "word ops" `Quick test_word_ops;
          Alcotest.test_case "arrays+globals" `Quick test_arrays_and_globals;
          Alcotest.test_case "array init" `Quick test_array_initializer;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "short-circuit" `Quick test_short_circuit;
          Alcotest.test_case "extern" `Quick test_extern;
          Alcotest.test_case "protections agree" `Quick test_all_protections_agree;
        ] );
      ( "faults",
        [
          Alcotest.test_case "div by zero" `Quick test_fault_div;
          Alcotest.test_case "fuel" `Quick test_fault_fuel;
          Alcotest.test_case "deep recursion" `Quick test_fault_recursion;
          Alcotest.test_case "calls before stack overflow" `Quick
            test_recursion_depth_count;
          Alcotest.test_case "session allocates frames on use" `Quick
            test_session_is_lean;
          Alcotest.test_case "elided load allocation" `Quick
            test_elided_load_allocation;
          Alcotest.test_case "wild read machine fault" `Quick
            test_unprotected_wild_read_machine_fault;
        ] );
      ( "containment",
        [
          Alcotest.test_case "unprotected corrupts kernel" `Quick
            test_unprotected_store_corrupts_kernel;
          Alcotest.test_case "sfi confines stores" `Quick test_sfi_store_confined;
          Alcotest.test_case "wj allows reads" `Quick
            test_write_jump_does_not_stop_reads;
          Alcotest.test_case "full confines reads" `Quick
            test_full_protection_confines_reads;
          Alcotest.test_case "instruction overhead" `Quick
            test_sfi_instruction_overhead;
          Alcotest.test_case "results identical" `Quick
            test_results_identical_across_protection;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts instrumented" `Quick test_verify_accepts_instrumented;
          Alcotest.test_case "rejects raw store" `Quick test_verify_rejects_raw_store;
          Alcotest.test_case "rejects wrong mask" `Quick test_verify_rejects_wrong_mask;
          Alcotest.test_case "rejects r1 abuse" `Quick test_verify_rejects_sandbox_reg_abuse;
          Alcotest.test_case "rejects write to r0" `Quick test_verify_rejects_write_to_zero;
          Alcotest.test_case "rejects branch into seq" `Quick
            test_verify_rejects_branch_into_sequence;
          Alcotest.test_case "rejects bad target" `Quick test_verify_rejects_bad_branch_target;
          Alcotest.test_case "rejects call arity" `Quick test_verify_rejects_call_arity;
          Alcotest.test_case "rejects out-of-range registers" `Quick
            test_verify_rejects_register_range;
          Alcotest.test_case "load rejects non-pow2" `Quick test_load_rejects_tampered;
        ] );
      ( "limits",
        [
          Alcotest.test_case "register exhaustion" `Quick
            test_register_exhaustion_rejected;
          Alcotest.test_case "more locals than registers" `Quick
            test_too_many_locals_rejected;
        ] );
      ("disasm", [ Alcotest.test_case "renders" `Quick test_disasm ]);
      ( "differential",
        [ Alcotest.test_case "fixed programs" `Quick test_differential ]
        @ qc [ prop_differential ] );
    ]
