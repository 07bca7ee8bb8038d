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

(* The interpreted loops keep their dispatch state in locals no closure
   captures, so a resident entry allocates no more than a JIT entry;
   the AST walker allocates per call, never per node. *)
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
      Technology.Bytecode_opt;
    ];
  let ast = entry_words Technology.Ast_interp in
  if ast >= 2500. then
    Alcotest.failf "ast-interp: %.0f minor words per 160-byte op" ast

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
       ~max_faults:2 ());
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
