(* Tests for graft_core: technology metadata, runners across every
   technology (differential against references), the graft manager's
   containment behaviour, and the break-even analysis. *)

open Graft_core
open Graft_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Technologies with wall-clock runners (all but Upcall_server). *)
let runner_techs =
  List.filter
    (fun t ->
      t <> Technology.Upcall_server && t <> Technology.Specialized_vm)
    Technology.all

(* ---------- technology ---------- *)

let test_technology_names_unique () =
  let names = List.map Technology.name Technology.all in
  check_int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_technology_roundtrip () =
  List.iter
    (fun t ->
      match Technology.of_name (Technology.name t) with
      | Some t' when t = t' -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (Technology.name t))
    Technology.all

let test_trust_models () =
  check_bool "unsafe can crash" true (Technology.can_crash_kernel Technology.Unsafe_c);
  List.iter
    (fun t ->
      if t <> Technology.Unsafe_c then
        check_bool
          (Technology.name t ^ " contained")
          false
          (Technology.can_crash_kernel t))
    Technology.all

let test_paper_columns () =
  check_int "five columns" 5 (List.length Technology.paper_columns)

(* ---------- the tier table ---------- *)

let vm_techs =
  Technology.
    [
      Ast_interp; Bytecode_vm; Bytecode_opt; Safe_lang_static; Jit;
      Sfi_write_jump; Sfi_full;
    ]

(* A loop the peephole pass fuses ([i = i + 1], [i < 8]) over array
   accesses the static tier proves in bounds, plus a division. *)
let table_src =
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 8; i = i + 1) { a[i] = i * n; s = s + a[i]; }\n\
   return s;\n\
   }\n\
   fn div(x : int, y : int) : int { return x / y; }"

(* [tech]'s engine over a fresh image of [table_src] linked without the
   IR pre-pass, so every tier runs the same program and fuel compares
   across tiers. *)
let table_engine ?profile tech =
  let image = (Runners.gel_env Technology.Bytecode_vm table_src []).Runners.image in
  let run = Runners.engine ?profile ~fuel:100_000 tech image in
  fun ~entry ~args ->
    let fn = Gelrun.fn image entry ~args in
    Gelrun.outcome (fun () -> run ~fn ~args)

let show_run = function
  | Ok v -> string_of_int v
  | Error (`Fault f) -> "fault " ^ Graft_mem.Fault.to_string f

let test_tier_table_agrees () =
  let calls = [ ("main", [| 3 |]); ("div", [| 7; 0 |]) ] in
  let reference = table_engine Technology.Ast_interp in
  let expected = List.map (fun (entry, args) -> reference ~entry ~args) calls in
  check_str "reference result" "84" (show_run (List.hd expected));
  List.iter
    (fun tech ->
      let run = table_engine tech in
      List.iter2
        (fun (entry, args) want ->
          let got = run ~entry ~args in
          if got <> want then
            Alcotest.failf "%s %s: %s, the interpreter %s" (Technology.name tech)
              entry (show_run got) (show_run want))
        calls expected)
    vm_techs;
  match table_engine Technology.Unsafe_c with
  | (_ : entry:string -> args:int array -> _) ->
      Alcotest.fail "unsafe-c got an engine"
  | exception Invalid_argument _ -> ()

(* A loaded graft resolves an entry point once, when asked for it: a
   bad name or arity is refused then, with the resolver's message, on
   every tier. *)
let test_entry_resolution () =
  List.iter
    (fun tech ->
      let name = Technology.name tech in
      let g = Runners.gel_graft tech table_src [] in
      check_int (name ^ " main") 84 (g.Runners.entry "main" ~nargs:1 [| 3 |]);
      match g.Runners.entry "main" ~nargs:0 with
      | (_ : int array -> int) -> Alcotest.failf "%s: a bad arity resolved" name
      | exception Invalid_argument msg ->
          check_str (name ^ " bad entry")
            "bad graft entry point: main expects 1 arguments, given 0" msg)
    vm_techs

(* The table wires each technology to its own loader: only fused code
   executes superinstructions (the opcodes charging more fuel than one
   per execution), and it charges the plain code's fuel; only
   statically checked code executes elided ([.u]) opcodes; only full
   SFI masks loads. *)
let test_tier_table_loaders () =
  let profile tech =
    let prof =
      Graft_trace.Opprof.create ~names:Graft_stackvm.Opcode.class_names
    in
    let run = table_engine ~profile:prof tech in
    check_str (Technology.name tech ^ " result") "84"
      (show_run (run ~entry:"main" ~args:[| 3 |]));
    let executed = Graft_trace.Opprof.top prof ~n:max_int in
    ( Graft_trace.Opprof.total_fuel prof,
      List.exists (fun (_, count, fuel) -> fuel > count) executed,
      List.exists
        (fun (name, _, _) -> String.ends_with ~suffix:".u" name)
        executed )
  in
  let plain_fuel, plain_fused, plain_elided = profile Technology.Bytecode_vm in
  let opt_fuel, opt_fused, _ = profile Technology.Bytecode_opt in
  let _, _, static_elided = profile Technology.Safe_lang_static in
  check_bool "bytecode-vm runs no fused opcode" false plain_fused;
  check_bool "bytecode-opt runs a fused opcode" true opt_fused;
  check_int "bytecode-opt charges bytecode-vm's fuel" plain_fuel opt_fuel;
  check_bool "bytecode-vm runs no elided opcode" false plain_elided;
  check_bool "safe-lang-static runs an elided opcode" true static_elided;
  (* Full SFI masks the loads write+jump leaves free. *)
  let regvm_count tech =
    let prof = Graft_trace.Opprof.create ~names:Graft_regvm.Isa.class_names in
    let run = table_engine ~profile:prof tech in
    ignore (run ~entry:"main" ~args:[| 3 |]);
    Graft_trace.Opprof.total_count prof
  in
  check_bool "sfi-full executes more than sfi-wj" true
    (regvm_count Technology.Sfi_full > regvm_count Technology.Sfi_write_jump)

(* [graftkit gel] prints the table's result, exits 1 on a fault and 2
   on a bad entry point or a technology that runs no GEL. *)
let test_gel_cli () =
  let gcd = "../examples/grafts/gcd.gel" in
  List.iter
    (fun tech ->
      let code, out =
        Cli.graftkit
          [ "gel"; gcd; "-e"; "gcd"; "-a"; "252"; "-a"; "105"; "-t";
            Technology.name tech ]
      in
      check_int (Technology.name tech ^ " exit") 0 code;
      check_str (Technology.name tech ^ " output") "21\n" out)
    vm_techs;
  check_int "bad entry" 2 (fst (Cli.graftkit [ "gel"; gcd; "-e"; "nope" ]));
  check_int "unsafe-c" 2
    (fst (Cli.graftkit [ "gel"; gcd; "-e"; "gcd"; "-a"; "1"; "-a"; "2";
                         "-t"; "unsafe-c" ]));
  let probe = Filename.temp_file "divz" ".gel" in
  Out_channel.with_open_text probe (fun oc ->
      output_string oc "fn main(n : int) : int { return 7 / n; }\n");
  List.iter
    (fun tech ->
      let code, out =
        Cli.graftkit [ "gel"; probe; "-a"; "0"; "-t"; Technology.name tech ]
      in
      check_int (Technology.name tech ^ " fault exit") 1 code;
      check_bool
        (Technology.name tech ^ " fault printed")
        true
        (String.starts_with ~prefix:"fault: " out))
    vm_techs;
  Sys.remove probe;
  (* An expression deeper than the stack VM's operand stack runs on
     the AST walker, and the stack tiers refuse it with a load error,
     also under --dump. *)
  let deep = Filename.temp_file "deep" ".gel" in
  Out_channel.with_open_text deep (fun oc ->
      Printf.fprintf oc "fn main(n : int) : int {\n  return %sn%s;\n}\n"
        (String.concat "" (List.init 1100 (fun _ -> "(1 + ")))
        (String.make 1100 ')'));
  check_str "deep expression on ast-interp" "1101\n"
    (snd (Cli.graftkit [ "gel"; deep; "-a"; "1" ]));
  let err = Filename.temp_file "deep" ".err" in
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, out = Cli.graftkit ~stderr:err ([ "gel"; deep; "-a"; "1" ] @ args) in
      let msg = In_channel.with_open_text err In_channel.input_all in
      check_int (what ^ " exit") 1 code;
      check_str (what ^ " stdout") "" out;
      check_bool (what ^ " load error printed") true
        (String.starts_with ~prefix:"load error: " msg))
    [ [ "-t"; "bytecode-vm" ]; [ "-t"; "safe-lang-static" ]; [ "-t"; "jit" ];
      [ "--dump" ] ];
  Sys.remove err;
  Sys.remove deep

(* ---------- evict runners across technologies ---------- *)

let ref_contains hot page = Array.exists (fun p -> p = page) hot

let ref_choose hot lru =
  match Array.find_opt (fun p -> not (ref_contains hot p)) lru with
  | Some p -> p
  | None -> if Array.length lru = 0 then -1 else lru.(0)

let test_evict_runners_agree () =
  let rng = Prng.create 0xE1FL in
  let hot = Array.init 64 (fun i -> 2 * i) in
  let lru = Array.init 16 (fun i -> 200 + i) in
  List.iter
    (fun tech ->
      let runner = Runners.evict ~rng tech ~capacity_nodes:128 () in
      runner.Runners.refresh ~hot ~lru;
      for page = 0 to 130 do
        if runner.Runners.contains page <> ref_contains hot page then
          Alcotest.failf "%s: contains(%d) wrong" (Technology.name tech) page
      done;
      check_int (Technology.name tech ^ " choose") (ref_choose hot lru)
        (runner.Runners.choose ()))
    runner_techs

let test_evict_runner_refresh_replaces () =
  let runner = Runners.evict Technology.Bytecode_vm ~capacity_nodes:16 () in
  runner.Runners.refresh ~hot:[| 1; 2 |] ~lru:[| 3 |];
  check_bool "first layout" true (runner.Runners.contains 1);
  runner.Runners.refresh ~hot:[| 9 |] ~lru:[| 3 |];
  check_bool "old entry gone" false (runner.Runners.contains 1);
  check_bool "new entry" true (runner.Runners.contains 9)

let test_evict_runner_capacity () =
  let runner = Runners.evict Technology.Unsafe_c ~capacity_nodes:4 () in
  check_bool "raises" true
    (match runner.Runners.refresh ~hot:(Array.make 3 0) ~lru:(Array.make 3 0) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_evict_upcall_rejected () =
  check_bool "raises" true
    (match Runners.evict Technology.Upcall_server ~capacity_nodes:4 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_evict_regvm_ablation () =
  let rng = Prng.create 3L in
  let hot = Array.init 8 (fun i -> i * 5) in
  let refresh_u, contains_u =
    Runners.evict_regvm ~rng ~protection:Graft_regvm.Program.Unprotected
      ~capacity_nodes:32 ()
  in
  let refresh_w, contains_w =
    Runners.evict_regvm ~rng:(Prng.create 3L)
      ~protection:Graft_regvm.Program.Write_jump ~capacity_nodes:32 ()
  in
  refresh_u ~hot ~lru:[||];
  refresh_w ~hot ~lru:[||];
  let m_u, i_u = contains_u 10 in
  let m_w, i_w = contains_w 10 in
  check_bool "same result" true (m_u = m_w);
  (* This graft only reads, so write+jump adds no per-node cost. *)
  check_bool "icount comparable" true (i_w >= i_u)

let test_evict_upcall_runner () =
  let clock = Graft_kernel.Simclock.create () in
  let domain =
    Graft_kernel.Upcall.create ~name:"evictsrv" ~clock ~switch_s:10e-6 ()
  in
  let runner = Runners.evict_upcall ~domain ~capacity_nodes:64 () in
  let hot = [| 1; 2; 3 |] and lru = [| 2; 9 |] in
  runner.Runners.refresh ~hot ~lru;
  check_bool "contains" true (runner.Runners.contains 2);
  check_bool "absent" false (runner.Runners.contains 7);
  check_int "choose" 9 (runner.Runners.choose ());
  check_int "three upcalls" 3 domain.Graft_kernel.Upcall.upcalls;
  (* Each upcall costs at least two domain switches. *)
  check_bool "boundary cost charged" true
    (Graft_kernel.Simclock.now clock >= 3.0 *. 2.0 *. 10e-6)

(* ---------- md5 runners across technologies ---------- *)

let test_md5_runners_agree () =
  let r = Prng.create 0x3D5L in
  let capacity = 256 in
  let data = Prng.bytes r capacity in
  let expect = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data) in
  List.iter
    (fun tech ->
      let runner = Runners.md5 tech ~capacity in
      runner.Runners.load data;
      runner.Runners.compute capacity;
      check_str (Technology.name tech) expect (runner.Runners.digest_hex ()))
    runner_techs

let test_md5_runner_partial_length () =
  let r = Prng.create 0x3D6L in
  let capacity = 512 in
  let data = Prng.bytes r capacity in
  let n = 100 in
  let expect =
    Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes (Bytes.sub data 0 n))
  in
  List.iter
    (fun tech ->
      let runner = Runners.md5 tech ~capacity in
      runner.Runners.load data;
      runner.Runners.compute n;
      check_str (Technology.name tech) expect (runner.Runners.digest_hex ()))
    [
      Technology.Unsafe_c; Technology.Safe_lang; Technology.Safe_lang_nil;
      Technology.Sfi_write_jump; Technology.Sfi_full; Technology.Bytecode_vm;
      Technology.Ast_interp; Technology.Source_interp;
    ]

let test_md5_runner_rejects_oversize () =
  let r = Prng.create 0x3D7L in
  let capacity = 256 in
  let oversize = Prng.bytes r 520 in
  let data = Prng.bytes r capacity in
  let expect = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data) in
  List.iter
    (fun tech ->
      let name = Technology.name tech in
      let runner = Runners.md5 tech ~capacity in
      (match runner.Runners.load oversize with
      | () -> Alcotest.failf "%s: a 520-byte chunk was accepted" name
      | exception Invalid_argument _ -> ());
      (* Nothing past the data window was touched: the digest window
         and the graft's MD5 tables still give the right answer. *)
      runner.Runners.load data;
      runner.Runners.compute capacity;
      check_str name expect (runner.Runners.digest_hex ()))
    runner_techs

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A resident entry of every interpreted tier allocates no more than a
   JIT entry: the stack tiers keep their frames in the session, and the
   AST walker keeps its frame slabs and staged call arguments in its
   session too, so neither allocates per call, node or loop iteration. *)
let test_md5_runner_allocation () =
  let data = Prng.bytes (Prng.create 0x3D8L) 160 in
  let entry_words tech =
    let runner = Runners.md5 tech ~capacity:256 in
    runner.Runners.load data;
    (* The first entry grows the session's frame slabs. *)
    runner.Runners.compute 160;
    minor_words (fun () -> runner.Runners.compute 160)
  in
  let jit = entry_words Technology.Jit in
  List.iter
    (fun tech ->
      let w = entry_words tech in
      if w > jit then
        Alcotest.failf "%s: %.0f minor words per entry, the JIT %.0f"
          (Technology.name tech) w jit)
    [
      Technology.Bytecode_vm; Technology.Safe_lang_static;
      Technology.Bytecode_opt; Technology.Ast_interp;
    ]

(* Minor words per call of [f i], over 10,000 calls after 1,000
   warm-up calls and a minor collection. *)
let words_per_call f =
  for i = 1 to 1_000 do
    ignore (f i)
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (f i)
  done;
  (Gc.minor_words () -. w0) /. 10_000.

(* Upper bounds on the minor words of one GEL call, per tier: an evict
   [contains] (on the tiers whose regime is [Vm]: the SFI technologies
   run evict natively) and a hot-set [touch] (a GEL graft on every
   tier). What a call still allocates on the walker, the stack tiers
   and the JIT is the runner's argument array (3 words for contains'
   two arguments, 2 for touch's one): the fuel count, the map helpers'
   host calls and the map objects allocate nothing, so a boxed metric
   count, a copied host-call argument array or a boxed trace argument
   shows here. *)
let call_words_max =
  Technology.
    [
      (Ast_interp, Some 3, 2);
      (Bytecode_vm, Some 3, 2);
      (Bytecode_opt, Some 3, 2);
      (Safe_lang_static, Some 3, 2);
      (Jit, Some 3, 2);
      (Sfi_write_jump, None, 7);
      (Sfi_full, None, 7);
    ]

let test_call_allocation () =
  List.iter
    (fun (tech, contains_max, touch_max) ->
      let check what max f =
        let w = words_per_call f in
        if w > float_of_int max then
          Alcotest.failf "%s %s: %.2f minor words per call, at most %d"
            (Technology.name tech) what w max
      in
      Option.iter
        (fun max ->
          let e = Runners.evict tech ~capacity_nodes:64 () in
          e.Runners.refresh ~hot:(Array.init 16 (fun i -> 3 * i))
            ~lru:(Array.init 32 Fun.id);
          check "contains" max (fun i -> e.Runners.contains (i land 63)))
        contains_max;
      let h = Runners.hotset tech ~capacity:64 in
      check "touch" touch_max (fun i -> h.Runners.touch (i land 255)))
    call_words_max

(* A host call reads its arguments in the engine's own storage: an
   entry making 65 calls to a three-argument extern allocates no more
   than one making a single call, on every GEL technology. A copy of
   the arguments per call would add four words to each of them. *)
let test_host_call_copies_nothing () =
  let src =
    "extern fn sum3(int, int, int) : int;\n\
     fn once(x : int) : int { return sum3(x, 1, 2); }\n\
     fn many(x : int) : int {\n\
     var s = 0;\n\
     for (var i = 0; i < 65; i = i + 1) { s = sum3(x, i, s) & 1023; }\n\
     return s;\n\
     }"
  in
  let hosts =
    [
      {
        Graft_gel.Link.hname = "sum3";
        hfn = (fun a i -> a.(i) + a.(i + 1) + a.(i + 2));
      };
    ]
  in
  List.iter
    (fun tech ->
      let g = Runners.gel_graft ~hosts tech src [] in
      let once = g.Runners.entry "once" ~nargs:1
      and many = g.Runners.entry "many" ~nargs:1 in
      check_int (Technology.name tech ^ ": once") 8 (once [| 5 |]);
      let w1 = words_per_call (fun i -> once [| i |]) in
      let w65 = words_per_call (fun i -> many [| i |]) in
      if w65 > w1 then
        Alcotest.failf "%s: 65 host calls allocate %.2f minor words, 1 call %.2f"
          (Technology.name tech) w65 w1)
    vm_techs

(* ---------- logdisk runners across technologies ---------- *)

let test_logdisk_runners_agree () =
  let config = { Graft_kernel.Logdisk.nblocks = 512; segment_blocks = 16 } in
  let r = Prng.create 0x10D1L in
  let workload = Array.init 300 (fun _ -> Prng.int r 512) in
  let reference =
    Graft_kernel.Logdisk.run config
      (Graft_kernel.Logdisk.native_policy config)
      workload
  in
  List.iter
    (fun tech ->
      let policy = Runners.logdisk_policy tech ~nblocks:512 in
      let result = Graft_kernel.Logdisk.run config policy workload in
      if result.Graft_kernel.Logdisk.mapping_errors <> 0 then
        Alcotest.failf "%s: mapping errors" (Technology.name tech);
      check_int
        (Technology.name tech ^ " segments")
        reference.Graft_kernel.Logdisk.segments_flushed
        result.Graft_kernel.Logdisk.segments_flushed)
    runner_techs

(* ---------- manager ---------- *)

let test_manager_register_and_find () =
  let m = Manager.create () in
  let g =
    Manager.register m ~name:"evict1" ~tech:Technology.Safe_lang
      ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy ()
  in
  check_bool "found" true (Manager.find m "evict1" = Some g);
  check_bool "duplicate rejected" true
    (match
       Manager.register m ~name:"evict1" ~tech:Technology.Unsafe_c
         ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_manager_evict_integration () =
  (* A safe-language eviction graft attached to a live VM subsystem
     protects the app's hot pages. *)
  let m = Manager.create () in
  ignore
    (Manager.register m ~name:"hotlist" ~tech:Technology.Safe_lang
       ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy ());
  let vm = Graft_kernel.Vmsys.create { Graft_kernel.Vmsys.nframes = 3; npages = 64; pages_per_fault = 1 } in
  let runner = Runners.evict Technology.Safe_lang ~capacity_nodes:64 () in
  (* The app's hot list: page 1 must never be evicted. *)
  Manager.attach_evict m ~graft_name:"hotlist" vm runner
    ~hot_pages:(fun () -> [| 1 |]);
  ignore (Graft_kernel.Vmsys.access vm 1);
  ignore (Graft_kernel.Vmsys.access vm 2);
  ignore (Graft_kernel.Vmsys.access vm 3);
  (* Page 1 is LRU; without the graft it would be evicted now. *)
  ignore (Graft_kernel.Vmsys.access vm 4);
  check_bool "hot page protected" true (Graft_kernel.Vmsys.resident vm 1);
  check_bool "page 2 evicted instead" false (Graft_kernel.Vmsys.resident vm 2);
  let s = Graft_kernel.Vmsys.stats vm in
  check_int "override recorded" 1 s.Graft_kernel.Vmsys.hook_overrides

let test_manager_disables_faulty_graft () =
  let m = Manager.create () in
  ignore
    (Manager.register m ~name:"bad" ~tech:Technology.Bytecode_vm
       ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy
       ~policy:{ Manager.default_policy with max_faults = 2 }
       ());
  let vm = Graft_kernel.Vmsys.create { Graft_kernel.Vmsys.nframes = 2; npages = 16; pages_per_fault = 1 } in
  (* A runner whose choose always faults. *)
  let runner =
    {
      Runners.e_tech = Technology.Bytecode_vm;
      refresh = (fun ~hot:_ ~lru:_ -> ());
      contains = (fun _ -> false);
      choose =
        (fun () ->
          Graft_mem.Fault.raise_fault Graft_mem.Fault.Fuel_exhausted);
    }
  in
  Manager.attach_evict m ~graft_name:"bad" vm runner ~hot_pages:(fun () -> [||]);
  ignore (Graft_kernel.Vmsys.access vm 1);
  ignore (Graft_kernel.Vmsys.access vm 2);
  (* Each of these evictions invokes the faulting graft; the kernel
     survives every one and falls back to LRU. *)
  ignore (Graft_kernel.Vmsys.access vm 3);
  ignore (Graft_kernel.Vmsys.access vm 4);
  ignore (Graft_kernel.Vmsys.access vm 5);
  let g = Option.get (Manager.find m "bad") in
  check_int "faults recorded" 2 g.Manager.faults;
  (match g.Manager.state with
  | Manager.Disabled _ -> ()
  | s -> Alcotest.failf "expected disabled, got %s" (Manager.state_name s));
  check_bool "kernel still consistent" true (Graft_kernel.Vmsys.invariant_ok vm)

let test_manager_unsafe_fault_panics () =
  let m = Manager.create () in
  ignore
    (Manager.register m ~name:"wild" ~tech:Technology.Unsafe_c
       ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy ());
  let vm = Graft_kernel.Vmsys.create { Graft_kernel.Vmsys.nframes = 2; npages = 16; pages_per_fault = 1 } in
  let runner =
    {
      Runners.e_tech = Technology.Unsafe_c;
      refresh = (fun ~hot:_ ~lru:_ -> ());
      contains = (fun _ -> false);
      choose =
        (fun () ->
          Graft_mem.Fault.raise_fault
            (Graft_mem.Fault.Out_of_bounds
               { access = Graft_mem.Fault.Write; addr = 0xDEAD }));
    }
  in
  Manager.attach_evict m ~graft_name:"wild" vm runner ~hot_pages:(fun () -> [||]);
  ignore (Graft_kernel.Vmsys.access vm 1);
  ignore (Graft_kernel.Vmsys.access vm 2);
  check_bool "panics" true
    (match Graft_kernel.Vmsys.access vm 3 with
    | exception Manager.Kernel_panic _ -> true
    | _ -> false)

let test_manager_md5_filter () =
  let m = Manager.create () in
  ignore
    (Manager.register m ~name:"fingerprint" ~tech:Technology.Safe_lang
       ~structure:Taxonomy.Stream ~motivation:Taxonomy.Functionality ());
  let runner = Runners.md5 Technology.Safe_lang ~capacity:4096 in
  let filter, get_digest =
    Manager.attach_md5_filter m ~graft_name:"fingerprint" runner ~capacity:4096
  in
  let sink_data = Buffer.create 256 in
  let chain =
    Graft_kernel.Streams.build [ filter ]
      ~sink:(fun chunk -> Buffer.add_bytes sink_data chunk)
  in
  let data = Bytes.of_string (String.init 1000 (fun i -> Char.chr (i mod 256))) in
  Graft_kernel.Streams.push chain data;
  Graft_kernel.Streams.finish chain;
  check_str "pass-through" (Bytes.to_string data) (Buffer.contents sink_data);
  match get_digest () with
  | Some d ->
      check_str "digest" (Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data)) d
  | None -> Alcotest.fail "no digest"

let test_manager_logdisk_wrap () =
  let m = Manager.create () in
  ignore
    (Manager.register m ~name:"lsd" ~tech:Technology.Safe_lang
       ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Performance ());
  let policy = Runners.logdisk_policy Technology.Safe_lang ~nblocks:256 in
  let wrapped = Manager.attach_logdisk m ~graft_name:"lsd" policy in
  let config = { Graft_kernel.Logdisk.nblocks = 256; segment_blocks = 16 } in
  let r = Prng.create 1L in
  let workload = Array.init 100 (fun _ -> Prng.int r 256) in
  let result = Graft_kernel.Logdisk.run config wrapped workload in
  check_int "no errors" 0 result.Graft_kernel.Logdisk.mapping_errors;
  let g = Option.get (Manager.find m "lsd") in
  check_bool "invocations counted" true (g.Manager.invocations > 100)

(* A graft's own fault keeps its class at the barrier: an out-of-range
   mapped write is "oob-write" on every interpreted tier and the source
   interpreter, exactly as on the native checked graft. *)
let test_manager_fault_class_kept () =
  List.iter
    (fun tech ->
      let name = Technology.name tech in
      let g =
        Manager.register (Manager.create ()) ~name:"lsd" ~tech
          ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Performance
          ~policy:{ Manager.default_policy with max_faults = 1 }
          ()
      in
      g.Manager.state <- Manager.Attached;
      let policy = Runners.logdisk_policy tech ~nblocks:64 in
      let write () = policy.Graft_kernel.Logdisk.map_write 1000 in
      check_bool (name ^ ": kernel falls back") true
        (Manager.invoke g write = None);
      match g.Manager.state with
      | Manager.Disabled f ->
          check_str (name ^ ": fault class") "oob-write"
            (Graft_mem.Fault.class_name f)
      | s ->
          Alcotest.failf "%s: expected disabled, got %s" name
            (Manager.state_name s))
    [
      Technology.Safe_lang; Technology.Ast_interp; Technology.Bytecode_vm;
      Technology.Bytecode_opt; Technology.Safe_lang_static; Technology.Jit;
      Technology.Source_interp;
    ]

(* ---------- breakeven ---------- *)

let test_breakeven_math () =
  check_bool "break even" true
    (Float.abs (Breakeven.break_even ~event_cost_s:6.9e-3 ~graft_cost_s:4.5e-6 -. 1533.3) < 1.0);
  check_bool "zero graft" true
    (Breakeven.break_even ~event_cost_s:1.0 ~graft_cost_s:0.0 = infinity);
  check_bool "normalized" true
    (Float.abs (Breakeven.normalized ~baseline_s:2.0 ~t_s:3.0 -. 1.5) < 1e-9)

let test_breakeven_worthwhile () =
  (* Paper: Solaris Modula-3 break-even 1095 > 781 -> worthwhile;
     Java 49 < 781 -> not. *)
  check_bool "modula-3 helps" true
    (Breakeven.worthwhile ~break_even:1095.0 ~save_period:Breakeven.paper_save_period);
  check_bool "java hurts" false
    (Breakeven.worthwhile ~break_even:49.0 ~save_period:Breakeven.paper_save_period)

let test_breakeven_upcall_sweep () =
  let sweep =
    Breakeven.upcall_sweep ~event_cost_s:6.9e-3 ~native_graft_s:4.5e-6
      ~upcall_times_s:[ 0.0; 10e-6; 50e-6 ]
  in
  (match sweep with
  | [ (_, b0); (_, b10); (_, b50) ] ->
      check_bool "monotone" true (b0 > b10 && b10 > b50);
      (* At zero upcall time the server equals in-kernel C. *)
      check_bool "b0 = C break-even" true (Float.abs (b0 -. (6.9e-3 /. 4.5e-6)) < 1.0)
  | _ -> Alcotest.fail "sweep length");
  (* Competitive upcall time to match Modula-3 at 6.3us given C at
     4.5us: 1.8us. *)
  check_bool "competitive upcall" true
    (Float.abs
       (Breakeven.competitive_upcall_s ~in_kernel_s:6.3e-6 ~native_graft_s:4.5e-6
       -. 1.8e-6)
    < 1e-12)

let test_breakeven_extrapolate () =
  check_bool "linear" true
    (Float.abs
       (Breakeven.extrapolate ~measured_s:0.5 ~measured_size:1000 ~full_size:4000
       -. 2.0)
    < 1e-9)

let test_taxonomy_names () =
  check_str "prioritization" "VM page eviction"
    (Taxonomy.representative Taxonomy.Prioritization);
  check_str "stream" "MD5 fingerprinting" (Taxonomy.representative Taxonomy.Stream);
  check_str "black box" "Logical Disk" (Taxonomy.representative Taxonomy.Black_box)

(* ---------- modules and instances ---------- *)

(* One observable transcript of a demux runner over [pkts], its answers
   then its connection map. *)
let demux_transcript (r : Runners.demux) pkts =
  let answers = Array.to_list (Array.map r.Runners.demux pkts) in
  answers
  @ List.init 64 (fun k -> Graft_kernel.Graftmap.lookup r.Runners.d_conn k)

let hotset_transcript (r : Runners.hotset) =
  let touches = List.init 300 (fun i -> r.Runners.touch (i * 7 mod 200)) in
  touches
  @ List.init 200 (fun p -> if r.Runners.hot p then 1 else 0)

(* A runner that differs from another in one input loads its own
   module, and answers as a build with no table does; a runner with
   the same inputs loads nothing. *)
let test_module_key () =
  let rng = Prng.create 77L in
  let pkts =
    Graft_kernel.Netpkt.random_sized_traffic rng ~count:200
      ~protocol:Graft_kernel.Netpkt.proto_udp ~port:4000
  in
  List.iter
    (fun tech ->
      let name = Technology.name tech in
      let modules = Runners.create_modules () in
      let loads () = Runners.module_count modules in
      let demux ~protocol ~marker =
        let shared = Runners.demux ~modules tech ~protocol ~marker in
        let fresh = Runners.demux tech ~protocol ~marker in
        Alcotest.(check (list int))
          (Printf.sprintf "%s demux %d/%x answers" name protocol marker)
          (demux_transcript fresh pkts)
          (demux_transcript shared pkts)
      in
      demux ~protocol:Graft_kernel.Netpkt.proto_udp ~marker:0x7F;
      check_int (name ^ ": first demux") 1 (loads ());
      demux ~protocol:Graft_kernel.Netpkt.proto_udp ~marker:0x7F;
      check_int (name ^ ": same demux again") 1 (loads ());
      demux ~protocol:Graft_kernel.Netpkt.proto_udp ~marker:0x42;
      check_int (name ^ ": another marker") 2 (loads ());
      demux ~protocol:Graft_kernel.Netpkt.proto_tcp ~marker:0x42;
      check_int (name ^ ": another protocol") 3 (loads ());
      let hotset capacity =
        Alcotest.(check (list int))
          (Printf.sprintf "%s hotset %d answers" name capacity)
          (hotset_transcript (Runners.hotset tech ~capacity))
          (hotset_transcript (Runners.hotset ~modules tech ~capacity))
      in
      hotset 64;
      check_int (name ^ ": hotset") 4 (loads ());
      (* A map's size is the instance's: its helpers check every key. *)
      hotset 32;
      check_int (name ^ ": another map size") 4 (loads ());
      (* [bounded] alone: the same source and windows. *)
      let src = Graft_grafts.Gel_sources.logdisk ~nblocks:16 in
      let g1 = Runners.gel_graft ~modules tech src [] in
      let g2 = Runners.gel_graft ~modules ~bounded:true tech src [] in
      check_int (name ^ ": bounded") 6 (loads ());
      List.iter
        (fun (g : Runners.loaded) ->
          check_int (name ^ " logdisk") (-1) (g.Runners.entry "lookup" ~nargs:1 [| 3 |]))
        [ g1; g2 ];
      if Runners.regime tech = Runners.Vm then begin
        let digest capacity (r : Runners.md5) =
          let data = Bytes.init capacity (fun i -> Char.chr (i * 31 land 0xFF)) in
          r.Runners.load data;
          r.Runners.compute capacity;
          r.Runners.digest_hex ()
        in
        List.iteri
          (fun i capacity ->
            check_str
              (Printf.sprintf "%s md5 %d" name capacity)
              (digest capacity (Runners.md5 tech ~capacity))
              (digest capacity (Runners.md5 ~modules tech ~capacity));
            check_int (name ^ ": md5 capacity") (7 + i) (loads ()))
          [ 256; 512 ]
      end)
    vm_techs

(* An instance is refused when its link's layout is not its module's. *)
let test_instance_layout_refused () =
  let src = Graft_grafts.Gel_sources.evict ~heap_cells:257 in
  List.iter
    (fun tech ->
      let modules = Runners.create_modules () in
      let m = Runners.load_module modules tech src [ ("heap", 257, false) ] in
      let refused windows =
        match Runners.instantiate m windows with
        | (_ : Runners.loaded) -> false
        | exception Failure _ -> true
      in
      check_bool "same windows" false (refused [ ("heap", 257, false) ]);
      check_bool "larger window" true (refused [ ("heap", 2000, false) ]);
      check_bool "writable window" true (refused [ ("heap", 257, true) ]);
      check_bool "window moved" true
        (refused [ ("pad", 8, false); ("heap", 257, false) ]))
    vm_techs

let () =
  Alcotest.run "graft_core"
    [
      ( "technology",
        [
          Alcotest.test_case "names unique" `Quick test_technology_names_unique;
          Alcotest.test_case "roundtrip" `Quick test_technology_roundtrip;
          Alcotest.test_case "trust models" `Quick test_trust_models;
          Alcotest.test_case "paper columns" `Quick test_paper_columns;
        ] );
      ( "tier table",
        [
          Alcotest.test_case "agrees with the interpreter" `Quick
            test_tier_table_agrees;
          Alcotest.test_case "loaders" `Quick test_tier_table_loaders;
          Alcotest.test_case "entry resolution" `Quick test_entry_resolution;
          Alcotest.test_case "graftkit gel" `Quick test_gel_cli;
        ] );
      ( "modules",
        [
          Alcotest.test_case "one module per key" `Quick test_module_key;
          Alcotest.test_case "instance on another layout refused" `Quick
            test_instance_layout_refused;
        ] );
      ( "evict runners",
        [
          Alcotest.test_case "all agree" `Quick test_evict_runners_agree;
          Alcotest.test_case "refresh replaces" `Quick test_evict_runner_refresh_replaces;
          Alcotest.test_case "capacity" `Quick test_evict_runner_capacity;
          Alcotest.test_case "upcall rejected" `Quick test_evict_upcall_rejected;
          Alcotest.test_case "regvm ablation" `Quick test_evict_regvm_ablation;
          Alcotest.test_case "upcall runner" `Quick test_evict_upcall_runner;
        ] );
      ( "md5 runners",
        [
          Alcotest.test_case "all agree" `Quick test_md5_runners_agree;
          Alcotest.test_case "partial length" `Quick test_md5_runner_partial_length;
          Alcotest.test_case "oversize chunk" `Quick test_md5_runner_rejects_oversize;
          Alcotest.test_case "entry allocation" `Quick test_md5_runner_allocation;
        ] );
      ( "call allocation",
        [
          Alcotest.test_case "per call, every tier" `Quick test_call_allocation;
          Alcotest.test_case "host call copies nothing" `Quick
            test_host_call_copies_nothing;
        ] );
      ( "logdisk runners",
        [ Alcotest.test_case "all agree" `Quick test_logdisk_runners_agree ] );
      ( "manager",
        [
          Alcotest.test_case "register/find" `Quick test_manager_register_and_find;
          Alcotest.test_case "evict integration" `Quick test_manager_evict_integration;
          Alcotest.test_case "disables faulty" `Quick test_manager_disables_faulty_graft;
          Alcotest.test_case "unsafe panics" `Quick test_manager_unsafe_fault_panics;
          Alcotest.test_case "md5 filter" `Quick test_manager_md5_filter;
          Alcotest.test_case "logdisk wrap" `Quick test_manager_logdisk_wrap;
          Alcotest.test_case "fault class kept" `Quick
            test_manager_fault_class_kept;
        ] );
      ( "breakeven",
        [
          Alcotest.test_case "math" `Quick test_breakeven_math;
          Alcotest.test_case "worthwhile" `Quick test_breakeven_worthwhile;
          Alcotest.test_case "upcall sweep" `Quick test_breakeven_upcall_sweep;
          Alcotest.test_case "extrapolate" `Quick test_breakeven_extrapolate;
          Alcotest.test_case "taxonomy" `Quick test_taxonomy_names;
        ] );
    ]
