(* Tests for graft_gel: lexer, parser, typechecker, linker, and the
   reference interpreter. *)

open Graft_gel
open Graft_mem

(* ---------- helpers ---------- *)

let compile_ok src =
  match Gel.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "unexpected compile error: %s" (Srcloc.to_string e)

let compile_err src =
  match Gel.compile src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> e.Srcloc.msg

let run_main ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) ?hosts src =
  let prog = compile_ok src in
  match Link.link_fresh ?hosts prog with
  | Error msg -> Alcotest.failf "link error: %s" msg
  | Ok image -> (
      match Gelrun.interp image ~entry ~args ~fuel with
      | Ok v -> v
      | Error (`Fault f) -> Alcotest.failf "fault: %s" (Fault.to_string f))

let run_fault ?(entry = "main") ?(args = [||]) ?(fuel = 10_000_000) src =
  let prog = compile_ok src in
  match Link.link_fresh prog with
  | Error msg -> Alcotest.failf "link error: %s" msg
  | Ok image -> (
      match Gelrun.interp image ~entry ~args ~fuel with
      | Ok v -> Alcotest.failf "expected fault, got %d" v
      | Error (`Fault f) -> f)

let check_int = Alcotest.(check int)

(* ---------- lexer ---------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lex_operators () =
  Alcotest.(check bool) "shr vs lshr" true
    (toks "a >> b >>> c"
    = [ Token.IDENT "a"; Token.SHR; Token.IDENT "b"; Token.LSHR;
        Token.IDENT "c"; Token.EOF ])

let test_lex_hex () =
  Alcotest.(check bool) "hex" true
    (toks "0xFF 0x0" = [ Token.INT 255; Token.INT 0; Token.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "comments skipped" true
    (toks "1 // line\n /* block \n multi */ 2" = [ Token.INT 1; Token.INT 2; Token.EOF ])

let test_lex_unterminated_comment () =
  Alcotest.(check bool) "raises" true
    (match Lexer.tokenize "/* oops" with
    | exception Srcloc.Error _ -> true
    | _ -> false)

let test_lex_bad_char () =
  Alcotest.(check bool) "raises" true
    (match Lexer.tokenize "a @ b" with
    | exception Srcloc.Error _ -> true
    | _ -> false)

let test_lex_positions () =
  let tokens = Lexer.tokenize "a\n  b" in
  match tokens with
  | [ (_, p1); (_, p2); _ ] ->
      check_int "line a" 1 p1.Srcloc.line;
      check_int "line b" 2 p2.Srcloc.line;
      check_int "col b" 3 p2.Srcloc.col
  | _ -> Alcotest.fail "unexpected token count"

(* Every token and position of the built-in graft sources and the
   example grafts, pinned by digest, so no lexer change can move a
   token or a position unnoticed. *)
let token_stream src =
  let b = Buffer.create 4096 in
  List.iter
    (fun (tok, (p : Srcloc.pos)) ->
      Printf.bprintf b "%d:%d %s\n" p.Srcloc.line p.Srcloc.col
        (match tok with
        | Token.INT n -> "#" ^ string_of_int n
        | Token.IDENT s -> "$" ^ s
        | t -> Token.to_string t))
    (Lexer.tokenize src);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_lex_streams () =
  let module G = Graft_grafts.Gel_sources in
  let read f = In_channel.with_open_text f In_channel.input_all in
  List.iter
    (fun (name, src, digest) ->
      Alcotest.(check string) name digest (token_stream src))
    [
      ("evict", G.evict ~heap_cells:257, "0b6bf5319bae5dda4631bcbb9fc8f7bd");
      ("md5", G.md5 ~data_cells:384, "f21b29ee07062362e1c12eecaf25fbf3");
      ("logdisk", G.logdisk ~nblocks:64, "fd280c9b8708a51f4b9b9438990aa6ac");
      ( "packet filter",
        G.packet_filter ~window_cells:2048 ~protocol:17 ~port:4000,
        "753fe2a18ea78fb6dd05c92ceac795fa" );
      ( "demux",
        G.demux ~window_cells:2048 ~protocol:17 ~marker:0x7F,
        "e5436bf5eda99ce64afd8fc61e1f42e2" );
      ( "unbounded demux",
        G.demux_unbounded ~window_cells:2048 ~protocol:6 ~marker:0x42,
        "7268f25957ff6de77dc2626a045359ca" );
      ("hotset", G.hotset, "9acd40fb875f5a4ed917c9dbdb17275f");
      ( "crc32.gel",
        read "../examples/grafts/crc32.gel",
        "cc2108cc7e0895def2627897cb7f588b" );
      ( "gcd.gel",
        read "../examples/grafts/gcd.gel",
        "92b396ea9859798ef62fd8302a4c5862" );
    ]

(* Each lexer error keeps its position and text; the inputs that lex
   keep their token counts. *)
let test_lex_errors () =
  List.iter
    (fun (src, want) ->
      let got =
        match Lexer.tokenize src with
        | toks -> Printf.sprintf "ok %d" (List.length toks)
        | exception Srcloc.Error e -> Srcloc.to_string e
      in
      Alcotest.(check string) (String.escaped src) want got)
    [
      ("/* oops", "line 1, col 1: unterminated block comment");
      ("a @ b", "line 1, col 3: unexpected character '@'");
      ("x = 0x;", "line 1, col 5: empty hex literal");
      ( "0xFFFFFFFFFFFFFFFFFFFF",
        "line 1, col 1: hex literal out of range: 0xFFFFFFFFFFFFFFFFFFFF" );
      ( "99999999999999999999999",
        "line 1, col 1: integer literal out of range: 99999999999999999999999"
      );
      ("fn f() {\n  /* a\n b", "line 2, col 3: unterminated block comment");
      ("\n\n  $", "line 3, col 3: unexpected character '$'");
      ("a\n\t#", "line 2, col 2: unexpected character '#'");
      ("0x", "line 1, col 1: empty hex literal");
      ("12ab", "ok 3");
      ("a/", "ok 3");
      ("/", "ok 2");
      ("x >>>= 1", "ok 5");
      ("a & & b", "ok 5");
      ("x\r\ny", "ok 3");
    ]

(* ---------- parser / precedence via evaluation ---------- *)

let test_precedence_mul_add () =
  check_int "1+2*3" 7 (run_main "fn main() : int { return 1 + 2 * 3; }")

let test_precedence_shift_cmp () =
  (* 1 << 2 < 5 parses as (1 << 2) < 5 = 4 < 5 = true. *)
  check_int "shift vs cmp" 1
    (run_main "fn main() : int { if (1 << 2 < 5) { return 1; } return 0; }")

let test_precedence_band_cmp () =
  (* & binds tighter than == in GEL (unlike C). *)
  check_int "band vs eq" 1
    (run_main "fn main() : int { if (3 & 1 == 1) { return 1; } return 0; }")

let test_parse_error_missing_semi () =
  Alcotest.(check bool) "raises" true
    (match Gel.compile "fn main() : int { return 1 }" with
    | Error _ -> true
    | Ok _ -> false)

let test_parse_else_if () =
  let src =
    "fn pick(x : int) : int {\n\
     if (x == 0) { return 10; }\n\
     else if (x == 1) { return 20; }\n\
     else { return 30; }\n\
     }"
  in
  check_int "else-if 0" 10 (run_main ~entry:"pick" ~args:[| 0 |] src);
  check_int "else-if 1" 20 (run_main ~entry:"pick" ~args:[| 1 |] src);
  check_int "else-if 2" 30 (run_main ~entry:"pick" ~args:[| 2 |] src)

let test_array_initializer () =
  let src =
    "array t[4] : word = { 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476 };\n\
     fn main() : int { return int(t[1] >> 24); }"
  in
  check_int "init word array" 0xef (run_main src)

let test_trailing_comma_initializer () =
  check_int "trailing comma" 2
    (run_main "array t[3] = { 1, 2, };\nfn main() : int { return t[1]; }")

(* ---------- typechecker ---------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let expect_err src fragment =
  let msg = compile_err src in
  if not (contains msg fragment) then
    Alcotest.failf "error %S does not mention %S" msg fragment

let test_type_mismatch () =
  expect_err "fn main() : int { var b : bool = true; return b + 1; }" "bool"

let test_word_int_no_mix () =
  expect_err
    "fn main() : int { var w : word = 1; var i : int = 2; return int(w + i); }"
    "mismatch"

let test_unbound_var () = expect_err "fn main() : int { return x; }" "unbound"

let test_break_outside_loop () =
  expect_err "fn main() : int { break; return 1; }" "break outside"

let test_continue_outside_loop () =
  expect_err "fn main() : int { continue; return 1; }" "continue outside"

let test_missing_return () =
  expect_err "fn main() : int { var x = 1; }" "return on every path"

let test_return_both_branches_ok () =
  check_int "both branches" 5
    (run_main
       "fn main() : int { if (true) { return 5; } else { return 6; } }")

let test_duplicate_toplevel () =
  expect_err "var x : int = 1;\nvar x : int = 2;\nfn main() : int { return x; }"
    "duplicate"

let test_duplicate_local_same_scope () =
  expect_err "fn main() : int { var x = 1; var x = 2; return x; }"
    "already declared"

let test_shadowing_in_nested_scope_ok () =
  check_int "shadowing" 3
    (run_main
       "fn main() : int { var x = 1; if (true) { var x = 2; x = 3; return x; } \
        return x; }")

let test_void_in_expression () =
  expect_err "fn f() { return; }\nfn main() : int { return f(); }" "void"

let test_arity_mismatch () =
  expect_err "fn f(a : int) : int { return a; }\nfn main() : int { return f(); }"
    "expects 1 arguments"

let test_array_without_subscript () =
  expect_err "array a[4];\nfn main() : int { return a; }" "without a subscript"

let test_subscript_must_be_int () =
  expect_err
    "array a[4];\nfn main() : int { var w : word = 0; return a[w]; }"
    "subscript"

let test_shared_array_no_init () =
  Alcotest.(check bool) "rejected at parse" true
    (match Gel.compile "shared array h[4] = { 1 };" with
    | Error _ -> true
    | Ok _ -> false)

let test_word_literal_range () =
  expect_err "var w : word = 0x1FFFFFFFF;\nfn main() : int { return 0; }"
    "out of range"

let test_condition_must_be_bool () =
  expect_err "fn main() : int { if (1) { return 1; } return 0; }" "bool"

let test_assign_type_mismatch () =
  expect_err "fn main() : int { var x = 1; x = true; return x; }" "assign"

(* ---------- interpreter: programs ---------- *)

let test_factorial_recursive () =
  let src =
    "fn fact(n : int) : int { if (n <= 1) { return 1; } return n * fact(n - 1); }"
  in
  check_int "10!" 3628800 (run_main ~entry:"fact" ~args:[| 10 |] src)

let test_fib_loop () =
  let src =
    "fn fib(n : int) : int {\n\
     var a = 0; var b = 1;\n\
     for (var i = 0; i < n; i = i + 1) { var t = a + b; a = b; b = t; }\n\
     return a;\n\
     }"
  in
  check_int "fib 20" 6765 (run_main ~entry:"fib" ~args:[| 20 |] src)

let test_gcd_while () =
  let src =
    "fn gcd(a : int, b : int) : int {\n\
     while (b != 0) { var t = a % b; a = b; b = t; }\n\
     return a;\n\
     }"
  in
  check_int "gcd" 12 (run_main ~entry:"gcd" ~args:[| 48; 36 |] src)

let test_word_wraparound () =
  check_int "word add wraps" 0
    (run_main
       "fn main() : int { var w : word = 0xFFFFFFFF; return int(w + 1); }");
  check_int "word sub wraps" 0xFFFFFFFF
    (run_main "fn main() : int { var w : word = 0; return int(w - 1); }")

let test_word_mul_mod32 () =
  (* 0x10001 * 0x10001 = 0x100020001 -> low 32 bits 0x00020001 *)
  check_int "word mul" 0x20001
    (run_main
       "fn main() : int { var w : word = 0x10001; return int(w * w); }")

let test_word_rotation_idiom () =
  (* rotl(x, n) written with shifts, as MD5 does. *)
  let rotl_src x n =
    Printf.sprintf
      "fn main() : int { var x : word = word(%d); var n = %d;\n\
       return int((x << n) | (x >>> (32 - n))); }"
      x n
  in
  check_int "rotl(1,31)" 0x80000000 (run_main (rotl_src 1 31));
  check_int "rotl(0x80000081,7)" (Wordops.rotl 0x80000081 7)
    (run_main (rotl_src 0x80000081 7))

let test_word_shr_logical () =
  check_int "word >> is logical" 0x7FFFFFFF
    (run_main
       "fn main() : int { var w : word = 0xFFFFFFFF; return int(w >> 1); }")

(* The walker writes the word semantics out rather than calling
   [Wordops]; hold every written-out operation to [Wordops] over edge
   and random operands. *)
let test_word_ops_match_wordops () =
  let r = Graft_util.Prng.create 0x3DBL in
  let edges = [| 0; 1; 7; 31; 32; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF |] in
  let ne = Array.length edges in
  let binops =
    Ir.
      [ (Add, Wordops.add); (Sub, Wordops.sub); (Mul, Wordops.mul);
        (Shl, Wordops.shl); (Shr, Wordops.shr); (Lshr, Wordops.shr);
        (Band, Wordops.band); (Bor, Wordops.bor); (Bxor, Wordops.bxor) ]
  in
  let image =
    match
      Link.link_fresh
        (compile_ok
           "fn main(a : int, op : int) : int {\n\
            var x : word = word(a);\n\
            if (op == 0) { return int(~x); }\n\
            if (op == 1) { return int(-x); }\n\
            return int(x);\n\
            }")
    with
    | Ok image -> image
    | Error msg -> Alcotest.failf "link error: %s" msg
  in
  for i = 0 to 299 do
    let a, b =
      if i < ne * ne then (edges.(i / ne), edges.(i mod ne))
      else
        ( Graft_util.Prng.int r 0x100000000,
          Graft_util.Prng.int r 0x100000000 )
    in
    List.iter
      (fun (op, f) ->
        check_int
          (Printf.sprintf "word op on (%d, %d)" a b)
          (f a b) (Interp.arith Ir.Kword op a b))
      binops;
    if b <> 0 then begin
      check_int "word div" (Wordops.div a b) (Interp.arith Ir.Kword Ir.Div a b);
      check_int "word mod" (Wordops.rem a b) (Interp.arith Ir.Kword Ir.Mod a b)
    end;
    (* [word(a)] of any int, then [~] and unary [-] on the word. *)
    let a = if i land 1 = 0 then a else Int64.to_int (Graft_util.Prng.next r) in
    List.iter
      (fun (op, expect) ->
        match Gelrun.interp image ~entry:"main" ~args:[| a; op |] ~fuel:100 with
        | Ok v -> check_int (Printf.sprintf "unary %d on %d" op a) expect v
        | Error _ -> Alcotest.fail "word program faulted")
      [ (0, Wordops.bnot (Wordops.of_int a)); (1, Wordops.neg (Wordops.of_int a));
        (2, Wordops.of_int a) ]
  done

let test_int_shr_arithmetic () =
  check_int "int >> keeps sign" (-2)
    (run_main "fn main() : int { var x = -4; return x >> 1; }")

let test_break_continue () =
  let src =
    "fn main() : int {\n\
     var sum = 0;\n\
     for (var i = 0; i < 100; i = i + 1) {\n\
     if (i % 2 == 0) { continue; }\n\
     if (i > 10) { break; }\n\
     sum = sum + i;\n\
     }\n\
     return sum;\n\
     }"
  in
  (* odd numbers 1..9: 1+3+5+7+9 = 25 *)
  check_int "break/continue" 25 (run_main src)

let test_continue_runs_for_step () =
  (* If continue skipped the step, this would loop forever and exhaust
     fuel rather than return. *)
  let src =
    "fn main() : int {\n\
     var n = 0;\n\
     for (var i = 0; i < 10; i = i + 1) { continue; }\n\
     return 7;\n\
     }"
  in
  check_int "for-continue terminates" 7 (run_main ~fuel:100_000 src)

let test_nested_loops_break_inner () =
  let src =
    "fn main() : int {\n\
     var count = 0;\n\
     for (var i = 0; i < 3; i = i + 1) {\n\
     var j = 0;\n\
     while (true) { j = j + 1; if (j == 4) { break; } }\n\
     count = count + j;\n\
     }\n\
     return count;\n\
     }"
  in
  check_int "nested" 12 (run_main src)

let test_globals_persist () =
  let src =
    "var counter : int = 100;\n\
     fn bump() { counter = counter + 1; }\n\
     fn main() : int { bump(); bump(); bump(); return counter; }"
  in
  check_int "globals" 103 (run_main src)

let test_global_word_init_folded () =
  check_int "const fold" 0xF0
    (run_main
       "var k : word = 0xF << 4;\nfn main() : int { return int(k); }")

let test_short_circuit_and () =
  (* a[9] would fault; && must not evaluate it. *)
  let src =
    "array a[4];\n\
     fn main() : int { if (false && a[9] == 1) { return 1; } return 2; }"
  in
  check_int "short-circuit &&" 2 (run_main src)

let test_short_circuit_or () =
  let src =
    "array a[4];\n\
     fn main() : int { if (true || a[9] == 1) { return 1; } return 2; }"
  in
  check_int "short-circuit ||" 1 (run_main src)

let test_bool_ops () =
  check_int "bool logic" 1
    (run_main
       "fn main() : int { var t = true; var f = false;\n\
        if ((t || f) && !(t && f)) { return 1; } return 0; }")

let test_forward_reference () =
  (* Functions may call functions defined later. *)
  check_int "forward call" 21
    (run_main
       "fn main() : int { return helper(20); }\n\
        fn helper(x : int) : int { return x + 1; }")

let test_mutual_recursion () =
  let src =
    "fn even(n : int) : int { if (n == 0) { return 1; } return odd(n - 1); }\n\
     fn odd(n : int) : int { if (n == 0) { return 0; } return even(n - 1); }"
  in
  check_int "even 10" 1 (run_main ~entry:"even" ~args:[| 10 |] src);
  check_int "odd 10" 0 (run_main ~entry:"odd" ~args:[| 10 |] src)

let test_nested_calls_as_args () =
  check_int "nesting" 30
    (run_main
       "fn add(a : int, b : int) : int { return a + b; }\n\
        fn main() : int { return add(add(5, 10), add(7, 8)); }")

let test_many_params () =
  check_int "six params" 21
    (run_main
       "fn sum6(a : int, b : int, c : int, d : int, e : int, f : int) : int {\n\
        return a + b + c + d + e + f; }\n\
        fn main() : int { return sum6(1, 2, 3, 4, 5, 6); }")

let test_word_division () =
  (* Word division is unsigned: 0xFFFFFFFF / 2 = 0x7FFFFFFF. *)
  check_int "unsigned div" 0x7FFFFFFF
    (run_main
       "fn main() : int { var w : word = 0xFFFFFFFF; return int(w / 2); }");
  check_int "unsigned mod" 3
    (run_main
       "fn main() : int { var w : word = 0xFFFFFFFF; var d : word = 4;\n\
        return int(w % d); }")

let test_deeply_nested_expression () =
  (* Deep but balanced expression; all engines must handle it. *)
  let rec build n = if n = 0 then "1" else Printf.sprintf "(%s + %s)" (build (n - 1)) "1" in
  let src = Printf.sprintf "fn main() : int { return %s; }" (build 40) in
  check_int "deep expr" 41 (run_main src)

let test_empty_function_body_void () =
  check_int "void empty" 7
    (run_main "fn noop() { }\nfn main() : int { noop(); return 7; }")

let test_comparison_chains_rejected () =
  (* a < b < c is (a < b) < c: bool meets int -> type error. *)
  expect_err "fn main() : int { if (1 < 2 < 3) { return 1; } return 0; }"
    "mismatch"

(* ---------- faults ---------- *)

let test_fault_div_zero () =
  match run_fault "fn main(a : int) : int { return 1 / a; }" ~args:[| 0 |] with
  | Fault.Division_by_zero -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_fault_mod_zero () =
  match run_fault "fn main(a : int) : int { return 1 % a; }" ~args:[| 0 |] with
  | Fault.Division_by_zero -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_fault_array_oob () =
  match
    run_fault "array a[4];\nfn main(i : int) : int { return a[i]; }"
      ~args:[| 4 |]
  with
  | Fault.Out_of_bounds _ -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_fault_array_negative () =
  match
    run_fault "array a[4];\nfn main(i : int) : int { return a[i]; }"
      ~args:[| -1 |]
  with
  | Fault.Out_of_bounds _ -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_fault_fuel () =
  match
    run_fault ~fuel:1000 "fn main() : int { while (true) { } return 0; }"
  with
  | Fault.Fuel_exhausted -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_fault_stack_overflow () =
  match
    run_fault "fn f(n : int) : int { return f(n + 1); }" ~entry:"f"
      ~args:[| 0 |]
  with
  | Fault.Stack_overflow -> ()
  | f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

let test_kernel_survives_fault () =
  (* The host must carry on after a graft faults: run a faulting graft,
     then a healthy one, against the same image. *)
  let prog =
    compile_ok
      "array a[2];\n\
       fn bad() : int { return a[99]; }\n\
       fn good() : int { return 41 + 1; }"
  in
  let image = Result.get_ok (Link.link_fresh prog) in
  (match Gelrun.interp image ~entry:"bad" ~args:[||] ~fuel:1000 with
  | Error (`Fault (Fault.Out_of_bounds _)) -> ()
  | _ -> Alcotest.fail "bad graft should fault");
  match Gelrun.interp image ~entry:"good" ~args:[||] ~fuel:1000 with
  | Ok v -> check_int "kernel survives" 42 v
  | _ -> Alcotest.fail "good graft should run"

(* ---------- linking ---------- *)

let test_shared_array_binding () =
  let prog =
    compile_ok
      "shared array hot[8];\n\
       fn sum() : int {\n\
       var s = 0;\n\
       for (var i = 0; i < 8; i = i + 1) { s = s + hot[i]; }\n\
       return s;\n\
       }"
  in
  let mem = Memory.create 256 in
  let window = Memory.alloc mem ~name:"hot_window" ~len:8 ~perm:Memory.perm_ro in
  Memory.blit_in mem window [| 1; 2; 3; 4; 5; 6; 7; 8 |];
  (* blit_in works regardless of graft perms: the kernel writes its own
     memory directly. *)
  match Link.link prog ~mem ~shared:[ ("hot", window) ] ~hosts:[] with
  | Error msg -> Alcotest.failf "link: %s" msg
  | Ok image -> (
      match Gelrun.interp image ~entry:"sum" ~args:[||] ~fuel:100_000 with
      | Ok v -> check_int "sum of shared" 36 v
      | Error (`Fault f) -> Alcotest.failf "fault: %s" (Fault.to_string f))

let test_shared_array_readonly_store_faults () =
  let prog =
    compile_ok "shared array hot[4];\nfn poke() : int { hot[0] = 9; return 0; }"
  in
  let mem = Memory.create 256 in
  let window = Memory.alloc mem ~name:"w" ~len:4 ~perm:Memory.perm_ro in
  match Link.link prog ~mem ~shared:[ ("hot", window) ] ~hosts:[] with
  | Error msg -> Alcotest.failf "link: %s" msg
  | Ok image -> (
      match Gelrun.interp image ~entry:"poke" ~args:[||] ~fuel:1000 with
      | Error (`Fault (Fault.Protection _)) -> ()
      | Ok _ -> Alcotest.fail "store to RO window must fault"
      | Error (`Fault f) -> Alcotest.failf "wrong error: %s" (Fault.to_string f))

let test_unbound_shared_array () =
  let prog = compile_ok "shared array hot[4];\nfn f() : int { return hot[0]; }" in
  let mem = Memory.create 64 in
  match Link.link prog ~mem ~shared:[] ~hosts:[] with
  | Error msg ->
      Alcotest.(check bool) "mentions array" true (contains msg "hot")
  | Ok _ -> Alcotest.fail "must fail to link"

let test_window_too_small () =
  let prog = compile_ok "shared array hot[8];\nfn f() : int { return hot[0]; }" in
  let mem = Memory.create 64 in
  let window = Memory.alloc mem ~name:"w" ~len:4 ~perm:Memory.perm_ro in
  match Link.link prog ~mem ~shared:[ ("hot", window) ] ~hosts:[] with
  | Error msg -> Alcotest.(check bool) "mentions size" true (contains msg "cells")
  | Ok _ -> Alcotest.fail "must fail to link"

let test_extern_host_call () =
  let calls = ref [] in
  let hosts =
    [
      { Link.hname = "log2arg"; hfn = (fun a i -> calls := a.(i) :: !calls; 0) };
      { Link.hname = "mul3"; hfn = (fun a i -> a.(i) * 3) };
    ]
  in
  let v =
    run_main ~hosts
      "extern fn log2arg(int);\n\
       extern fn mul3(int) : int;\n\
       fn main() : int { log2arg(7); log2arg(8); return mul3(5); }"
  in
  check_int "extern result" 15 v;
  Alcotest.(check (list int)) "extern side effects" [ 8; 7 ] !calls

let test_missing_extern () =
  let prog = compile_ok "extern fn f() : int;\nfn main() : int { return f(); }" in
  match Link.link_fresh prog with
  | Error msg -> Alcotest.(check bool) "mentions extern" true (contains msg "f")
  | Ok _ -> Alcotest.fail "must fail to link"

(* The one entry resolver every tier's caller uses, with its two
   messages. *)
let test_bad_entry () =
  let prog = compile_ok "fn helper() : int { return 1; }\nfn main() : int { return 0; }" in
  let resolved = Alcotest.(check (result int string)) in
  resolved "index" (Ok 1) (Ir.entry prog "main" ~nargs:0);
  resolved "unknown" (Error "no function named nope") (Ir.entry prog "nope" ~nargs:0);
  resolved "arity" (Error "main expects 0 arguments, given 1")
    (Ir.entry prog "main" ~nargs:1)

(* ---------- pretty ---------- *)

let test_pretty_output () =
  let prog2 =
    compile_ok "fn main(x : int) : int { while (x > 0) { x = x - 1; } return x; }"
  in
  let s = Pretty.program prog2 in
  Alcotest.(check bool) "mentions while" true (contains s "while");
  Alcotest.(check bool) "mentions fn" true (contains s "fn main")

(* ---------- optimizer ---------- *)

let opt_run ?(entry = "main") ?(args = [||]) src =
  let prog = Gel.compile_exn ~optimize:true src in
  match Link.link_fresh prog with
  | Error msg -> Alcotest.failf "link error: %s" msg
  | Ok image -> (
      match Gelrun.interp image ~entry ~args ~fuel:10_000_000 with
      | Ok v -> v
      | Error (`Fault f) -> Alcotest.failf "fault: %s" (Fault.to_string f))

let ir_size src ~optimize =
  Ir.size (Gel.compile_exn ~optimize src)

let test_opt_constant_folding () =
  let src = "fn main() : int { return 2 * 3 + 4 * 5 - (7 & 3); }" in
  check_int "value" 23 (opt_run src);
  (* Fully folded: body is a single return of a constant. *)
  check_int "folded to one node" 2 (ir_size src ~optimize:true)

let test_opt_dead_branch () =
  let src =
    "fn main() : int { if (1 < 2) { return 10; } else { return 20; } }"
  in
  check_int "value" 10 (opt_run src);
  Alcotest.(check bool) "branch pruned" true
    (ir_size src ~optimize:true < ir_size src ~optimize:false)

let test_opt_dead_while () =
  let src =
    "fn main() : int { while (false) { var x = 1; x = x + 1; } return 3; }"
  in
  check_int "value" 3 (opt_run src);
  check_int "loop removed" 2 (ir_size src ~optimize:true)

let test_opt_identities () =
  let src =
    "fn main(a : int) : int { return (a + 0) * 1 + (a ^ 0) - (a | 0) + (0 + a); }"
  in
  check_int "value" 14 (opt_run ~args:[| 7 |] src);
  (* Each identity collapses to a bare local read. *)
  Alcotest.(check bool) "shrunk" true
    (ir_size src ~optimize:true < ir_size src ~optimize:false)

let test_opt_preserves_div_fault () =
  (* 1/0 must not be folded away or into a crash at compile time. *)
  let prog = Gel.compile_exn ~optimize:true "fn main() : int { return 1 / 0; }" in
  let image = Result.get_ok (Link.link_fresh prog) in
  match Gelrun.interp image ~entry:"main" ~args:[||] ~fuel:1000 with
  | Error (`Fault Fault.Division_by_zero) -> ()
  | _ -> Alcotest.fail "fault must be preserved"

let test_opt_preserves_impure_mul_zero () =
  (* 0 * f() must still call f (side effect). *)
  let src =
    "var hits : int = 0;
     fn f() : int { hits = hits + 1; return 5; }
     fn main() : int { var z = 0 * f(); return hits + z; }"
  in
  check_int "call kept" 1 (opt_run src)

let test_opt_drops_pure_eval () =
  let src = "fn main() : int { 1 + 2; return 9; }" in
  check_int "value" 9 (opt_run src);
  check_int "statement dropped" 2 (ir_size src ~optimize:true)

let test_opt_short_circuit_consts () =
  check_int "false && -> 0" 2
    (opt_run
       "array a[2];
        fn main() : int { if (false && a[0] == 1) { return 1; } return 2; }");
  check_int "true || -> 1" 1
    (opt_run
       "array a[2];
        fn main() : int { if (true || a[0] == 1) { return 1; } return 2; }")

(* ---------- differential properties ---------- *)

let genint = QCheck.int_range (-1000000) 1000000

let prop_int_arith_matches_host =
  QCheck.Test.make ~name:"int arithmetic matches OCaml" ~count:300
    QCheck.(triple (int_range 0 10) genint genint)
    (fun (opi, a, b) ->
      let ops =
        [| ("+", ( + )); ("-", ( - )); ("*", ( * ));
           ("/", (fun a b -> if b = 0 then 0 else a / b));
           ("%", (fun a b -> if b = 0 then 0 else a mod b));
           ("&", ( land )); ("|", ( lor )); ("^", ( lxor ));
           ("<<", (fun a b -> Wordops.int_shl a (abs b)));
           (">>", (fun a b -> Wordops.int_shr a (abs b)));
           (">>>", (fun a b -> Wordops.int_lshr a (abs b)));
        |]
      in
      let name, f = ops.(opi) in
      let b = match name with "<<" | ">>" | ">>>" -> abs b | _ -> b in
      if (name = "/" || name = "%") && b = 0 then true
      else begin
        let src =
          Printf.sprintf "fn main(a : int, b : int) : int { return a %s b; }"
            name
        in
        run_main ~args:[| a; b |] src = f a b
      end)

let prop_word_arith_matches_wordops =
  QCheck.Test.make ~name:"word arithmetic matches Wordops" ~count:300
    QCheck.(triple (int_range 0 7) (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF))
    (fun (opi, a, b) ->
      let ops =
        [| ("+", Wordops.add); ("-", Wordops.sub); ("*", Wordops.mul);
           ("&", Wordops.band); ("|", Wordops.bor); ("^", Wordops.bxor);
           ("<<", (fun a b -> Wordops.shl a (b land 31)));
           (">>", (fun a b -> Wordops.shr a (b land 31)));
        |]
      in
      let name, f = ops.(opi) in
      let b' = match name with "<<" | ">>" -> b land 31 | _ -> b in
      let src =
        match name with
        | "<<" | ">>" ->
            (* shift amounts are ints in GEL *)
            Printf.sprintf
              "fn main(a : int, b : int) : int { var x : word = word(a); \
               return int(x %s b); }"
              name
        | _ ->
            Printf.sprintf
              "fn main(a : int, b : int) : int { var x : word = word(a); var \
               y : word = word(b); return int(x %s y); }"
              name
      in
      run_main ~args:[| a; b' |] src = f a b')

let prop_cmp_matches =
  QCheck.Test.make ~name:"comparisons match OCaml" ~count:200
    QCheck.(triple (int_range 0 5) genint genint)
    (fun (opi, a, b) ->
      let ops =
        [| ("<", ( < )); ("<=", ( <= )); (">", ( > )); (">=", ( >= ));
           ("==", ( = )); ("!=", ( <> ));
        |]
      in
      let name, f = ops.(opi) in
      let src =
        Printf.sprintf
          "fn main(a : int, b : int) : int { if (a %s b) { return 1; } return \
           0; }"
          name
      in
      run_main ~args:[| a; b |] src = if f a b then 1 else 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_gel"
    [
      ( "lexer",
        [
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "hex" `Quick test_lex_hex;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "unterminated comment" `Quick test_lex_unterminated_comment;
          Alcotest.test_case "bad char" `Quick test_lex_bad_char;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "token streams of the grafts" `Quick
            test_lex_streams;
          Alcotest.test_case "error positions and text" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "mul/add precedence" `Quick test_precedence_mul_add;
          Alcotest.test_case "shift/cmp precedence" `Quick test_precedence_shift_cmp;
          Alcotest.test_case "band/eq precedence" `Quick test_precedence_band_cmp;
          Alcotest.test_case "missing semicolon" `Quick test_parse_error_missing_semi;
          Alcotest.test_case "else if" `Quick test_parse_else_if;
          Alcotest.test_case "array initializer" `Quick test_array_initializer;
          Alcotest.test_case "trailing comma" `Quick test_trailing_comma_initializer;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
          Alcotest.test_case "word/int no mix" `Quick test_word_int_no_mix;
          Alcotest.test_case "unbound var" `Quick test_unbound_var;
          Alcotest.test_case "break outside loop" `Quick test_break_outside_loop;
          Alcotest.test_case "continue outside loop" `Quick test_continue_outside_loop;
          Alcotest.test_case "missing return" `Quick test_missing_return;
          Alcotest.test_case "return both branches" `Quick test_return_both_branches_ok;
          Alcotest.test_case "duplicate toplevel" `Quick test_duplicate_toplevel;
          Alcotest.test_case "duplicate local" `Quick test_duplicate_local_same_scope;
          Alcotest.test_case "shadowing ok" `Quick test_shadowing_in_nested_scope_ok;
          Alcotest.test_case "void in expression" `Quick test_void_in_expression;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "array without subscript" `Quick test_array_without_subscript;
          Alcotest.test_case "subscript type" `Quick test_subscript_must_be_int;
          Alcotest.test_case "shared no init" `Quick test_shared_array_no_init;
          Alcotest.test_case "word literal range" `Quick test_word_literal_range;
          Alcotest.test_case "condition bool" `Quick test_condition_must_be_bool;
          Alcotest.test_case "assign mismatch" `Quick test_assign_type_mismatch;
        ] );
      ( "interp",
        [
          Alcotest.test_case "factorial" `Quick test_factorial_recursive;
          Alcotest.test_case "fibonacci" `Quick test_fib_loop;
          Alcotest.test_case "gcd" `Quick test_gcd_while;
          Alcotest.test_case "word wraparound" `Quick test_word_wraparound;
          Alcotest.test_case "word mul" `Quick test_word_mul_mod32;
          Alcotest.test_case "word rotation" `Quick test_word_rotation_idiom;
          Alcotest.test_case "word shr logical" `Quick test_word_shr_logical;
          Alcotest.test_case "word ops = Wordops" `Quick
            test_word_ops_match_wordops;
          Alcotest.test_case "int shr arithmetic" `Quick test_int_shr_arithmetic;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "continue runs step" `Quick test_continue_runs_for_step;
          Alcotest.test_case "nested loops" `Quick test_nested_loops_break_inner;
          Alcotest.test_case "globals persist" `Quick test_globals_persist;
          Alcotest.test_case "const fold global" `Quick test_global_word_init_folded;
          Alcotest.test_case "short-circuit &&" `Quick test_short_circuit_and;
          Alcotest.test_case "short-circuit ||" `Quick test_short_circuit_or;
          Alcotest.test_case "bool ops" `Quick test_bool_ops;
        ] );
      ( "programs",
        [
          Alcotest.test_case "forward reference" `Quick test_forward_reference;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "nested calls" `Quick test_nested_calls_as_args;
          Alcotest.test_case "many params" `Quick test_many_params;
          Alcotest.test_case "word division" `Quick test_word_division;
          Alcotest.test_case "deep expression" `Quick test_deeply_nested_expression;
          Alcotest.test_case "void empty body" `Quick test_empty_function_body_void;
          Alcotest.test_case "comparison chain" `Quick test_comparison_chains_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "div by zero" `Quick test_fault_div_zero;
          Alcotest.test_case "mod by zero" `Quick test_fault_mod_zero;
          Alcotest.test_case "array oob" `Quick test_fault_array_oob;
          Alcotest.test_case "array negative" `Quick test_fault_array_negative;
          Alcotest.test_case "fuel exhaustion" `Quick test_fault_fuel;
          Alcotest.test_case "stack overflow" `Quick test_fault_stack_overflow;
          Alcotest.test_case "kernel survives" `Quick test_kernel_survives_fault;
        ] );
      ( "link",
        [
          Alcotest.test_case "shared array" `Quick test_shared_array_binding;
          Alcotest.test_case "RO window store faults" `Quick test_shared_array_readonly_store_faults;
          Alcotest.test_case "unbound shared" `Quick test_unbound_shared_array;
          Alcotest.test_case "window too small" `Quick test_window_too_small;
          Alcotest.test_case "extern host call" `Quick test_extern_host_call;
          Alcotest.test_case "missing extern" `Quick test_missing_extern;
          Alcotest.test_case "bad entry" `Quick test_bad_entry;
        ] );
      ("pretty", [ Alcotest.test_case "renders" `Quick test_pretty_output ]);
      ( "optimize",
        [
          Alcotest.test_case "constant folding" `Quick test_opt_constant_folding;
          Alcotest.test_case "dead branch" `Quick test_opt_dead_branch;
          Alcotest.test_case "dead while" `Quick test_opt_dead_while;
          Alcotest.test_case "identities" `Quick test_opt_identities;
          Alcotest.test_case "div fault preserved" `Quick test_opt_preserves_div_fault;
          Alcotest.test_case "impure mul zero" `Quick test_opt_preserves_impure_mul_zero;
          Alcotest.test_case "pure eval dropped" `Quick test_opt_drops_pure_eval;
          Alcotest.test_case "short-circuit consts" `Quick test_opt_short_circuit_consts;
        ] );
      ( "properties",
        qc [ prop_int_arith_matches_host; prop_word_arith_matches_wordops; prop_cmp_matches ] );
    ]
