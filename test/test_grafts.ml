(* Tests for graft_grafts: access regimes, list layout, and the three
   paper grafts under every native access regime, differentially
   against reference implementations. *)

open Graft_grafts
open Graft_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- access regimes ---------- *)

let test_unsafe_no_checks () =
  let a = [| 1; 2; 3; 4 |] in
  check_int "get" 3 (Access.Unsafe.get a 2);
  Access.Unsafe.set a 1 9;
  check_int "set" 9 a.(1)

let test_checked_bounds () =
  let a = [| 1; 2 |] in
  check_bool "oob get faults" true
    (match Access.Checked.get a 5 with
    | exception Graft_mem.Fault.Fault (Graft_mem.Fault.Out_of_bounds _) -> true
    | _ -> false);
  check_bool "neg set faults" true
    (match Access.Checked.set a (-1) 0 with
    | exception Graft_mem.Fault.Fault (Graft_mem.Fault.Out_of_bounds _) -> true
    | _ -> false);
  let b = Bytes.of_string "xy" in
  check_bool "byte oob faults" true
    (match Access.Checked.get_byte b 2 with
    | exception Graft_mem.Fault.Fault (Graft_mem.Fault.Out_of_bounds _) -> true
    | _ -> false)

let test_checked_nil_behaves_like_checked () =
  let a = [| 5; 6; 7; 8 |] in
  check_int "get 0 fine" 5 (Access.Checked_nil.get a 0);
  check_bool "oob faults" true
    (match Access.Checked_nil.get a 4 with
    | exception Graft_mem.Fault.Fault _ -> true
    | _ -> false)

let test_sfi_confines () =
  (* Power-of-two array: a wild store must land inside, never escape. *)
  let a = Array.make 8 0 in
  Access.Sfi_wj.set a 1000 42;
  check_bool "landed inside" true (Array.exists (fun v -> v = 42) a);
  Access.Sfi_wj.set a (-3) 77;
  check_bool "negative confined" true (Array.exists (fun v -> v = 77) a);
  (* Full protection confines reads too. *)
  check_int "read confined" a.(1000 land 7) (Access.Sfi_full.get a 1000)

let test_sfi_wj_reads_unconfined () =
  (* Write+jump leaves reads raw: in-bounds reads work, that is all we
     can safely demonstrate on a host array. *)
  let a = [| 10; 20; 30; 40 |] in
  check_int "plain read" 30 (Access.Sfi_wj.get a 2)

let test_all_regimes_agree_in_bounds () =
  let r = Prng.create 31L in
  List.iter
    (fun (module A : Access.S) ->
      let a = Array.make 64 0 in
      for _ = 1 to 200 do
        let i = Prng.int r 64 in
        let v = Prng.int r 1000 in
        A.set a i v;
        if A.get a i <> v then
          Alcotest.failf "%s: roundtrip failed at %d" A.name i
      done)
    Access.all

(* ---------- list layout ---------- *)

let test_layout_chains () =
  let hot = [| 11; 22; 33 |] and lru = [| 44; 55 |] in
  let l = Listlayout.build ~cells_len:16 ~hot ~lru () in
  Alcotest.(check (list int)) "hot chain" [ 11; 22; 33 ]
    (Listlayout.pages_of_chain l.Listlayout.cells l.Listlayout.hot_head);
  Alcotest.(check (list int)) "lru chain" [ 44; 55 ]
    (Listlayout.pages_of_chain l.Listlayout.cells l.Listlayout.lru_head);
  check_int "cell 0 is NIL" 0 l.Listlayout.cells.(0)

let test_layout_shuffled_preserves_order () =
  let rng = Prng.create 5L in
  let hot = Array.init 64 (fun i -> 100 + i) in
  let lru = Array.init 32 (fun i -> 500 + i) in
  let l = Listlayout.build ~rng ~cells_len:(1 + (2 * 96)) ~hot ~lru () in
  Alcotest.(check (list int)) "hot order preserved" (Array.to_list hot)
    (Listlayout.pages_of_chain l.Listlayout.cells l.Listlayout.hot_head);
  Alcotest.(check (list int)) "lru order preserved" (Array.to_list lru)
    (Listlayout.pages_of_chain l.Listlayout.cells l.Listlayout.lru_head)

let test_layout_too_small () =
  check_bool "raises" true
    (match Listlayout.build ~cells_len:3 ~hot:[| 1; 2 |] ~lru:[||] () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_layout_empty_lists () =
  let l = Listlayout.build ~cells_len:4 ~hot:[||] ~lru:[||] () in
  check_int "hot NIL" 0 l.Listlayout.hot_head;
  check_int "lru NIL" 0 l.Listlayout.lru_head

(* ---------- eviction graft ---------- *)

(* Reference membership/choice in plain OCaml over page arrays. *)
let ref_contains hot page = Array.exists (fun p -> p = page) hot

let ref_choose hot lru =
  match Array.find_opt (fun p -> not (ref_contains hot p)) lru with
  | Some p -> p
  | None -> if Array.length lru = 0 then -1 else lru.(0)

let evict_modules : (string * (module Access.S)) list =
  [
    ("unsafe", (module Access.Unsafe));
    ("checked", (module Access.Checked));
    ("checked-nil", (module Access.Checked_nil));
    ("sfi-wj", (module Access.Sfi_wj));
    ("sfi-full", (module Access.Sfi_full));
  ]

let test_evict_contains_all_regimes () =
  let rng = Prng.create 17L in
  let hot = Array.init 64 (fun i -> 3 * i) in
  let lru = Array.init 32 (fun i -> 1000 + i) in
  let layout =
    Listlayout.build ~rng ~cells_len:256 ~hot ~lru ()
  in
  List.iter
    (fun (name, (module A : Access.S)) ->
      let module E = Evict.Make (A) in
      for page = 0 to 200 do
        let expect = ref_contains hot page in
        let got =
          E.contains layout.Listlayout.cells ~head:layout.Listlayout.hot_head
            ~page
        in
        if got <> expect then Alcotest.failf "%s: contains(%d) wrong" name page
      done)
    evict_modules

let test_evict_choose_all_regimes () =
  let rng = Prng.create 23L in
  for trial = 1 to 20 do
    let nhot = Prng.int rng 10 and nlru = 1 + Prng.int rng 10 in
    let hot = Array.init nhot (fun _ -> Prng.int rng 20) in
    let lru = Array.init nlru (fun _ -> Prng.int rng 20) in
    let layout =
      Listlayout.build ~rng ~cells_len:128 ~hot ~lru ()
    in
    let expect = ref_choose hot lru in
    List.iter
      (fun (name, (module A : Access.S)) ->
        let module E = Evict.Make (A) in
        let got =
          E.choose_victim layout.Listlayout.cells
            ~lru_head:layout.Listlayout.lru_head
            ~hot_head:layout.Listlayout.hot_head
        in
        if got <> expect then
          Alcotest.failf "%s trial %d: choose got %d want %d" name trial got
            expect)
      evict_modules
  done

let test_evict_empty_lru () =
  let layout = Listlayout.build ~cells_len:8 ~hot:[| 1 |] ~lru:[||] () in
  check_int "empty lru" (-1)
    (Evict.Unsafe.choose_victim layout.Listlayout.cells
       ~lru_head:layout.Listlayout.lru_head
       ~hot_head:layout.Listlayout.hot_head)

let test_evict_all_hot_falls_back () =
  let layout =
    Listlayout.build ~cells_len:32 ~hot:[| 7; 8; 9 |] ~lru:[| 8; 9; 7 |] ()
  in
  check_int "falls back to candidate" 8
    (Evict.Checked.choose_victim layout.Listlayout.cells
       ~lru_head:layout.Listlayout.lru_head
       ~hot_head:layout.Listlayout.hot_head)

let prop_evict_matches_reference =
  QCheck.Test.make ~name:"eviction matches reference (all regimes)" ~count:100
    QCheck.(triple int64 (list_of_size Gen.(int_range 0 20) (int_range 0 50))
              (list_of_size Gen.(int_range 0 20) (int_range 0 50)))
    (fun (seed, hot_l, lru_l) ->
      let rng = Prng.create seed in
      let hot = Array.of_list hot_l and lru = Array.of_list lru_l in
      let layout = Listlayout.build ~rng ~cells_len:256 ~hot ~lru () in
      let expect = ref_choose hot lru in
      List.for_all
        (fun (_, (module A : Access.S)) ->
          let module E = Evict.Make (A) in
          E.choose_victim layout.Listlayout.cells
            ~lru_head:layout.Listlayout.lru_head
            ~hot_head:layout.Listlayout.hot_head
          = expect)
        evict_modules)

(* ---------- MD5 graft ---------- *)

let test_md5_graft_rfc_vectors () =
  (* Non-SFI regimes work at any size; check RFC vectors. *)
  List.iter
    (fun (input, expected) ->
      check_str
        (Printf.sprintf "md5(%S)" input)
        expected
        (Md5_graft.Unsafe.digest_hex (Bytes.of_string input));
      check_str "checked" expected
        (Md5_graft.Checked.digest_hex (Bytes.of_string input));
      check_str "checked-nil" expected
        (Md5_graft.Checked_nil.digest_hex (Bytes.of_string input)))
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ]

let test_md5_graft_all_regimes_pow2 () =
  (* Power-of-two buffers: every regime, including SFI, must agree with
     the kernel's reference MD5. *)
  let r = Prng.create 0xABCL in
  List.iter
    (fun size ->
      let data = Prng.bytes r size in
      let expect = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data) in
      check_str "unsafe" expect (Md5_graft.Unsafe.digest_hex data);
      check_str "checked" expect (Md5_graft.Checked.digest_hex data);
      check_str "checked-nil" expect (Md5_graft.Checked_nil.digest_hex data);
      check_str "sfi-wj" expect (Md5_graft.Sfi_wj.digest_hex data);
      check_str "sfi-full" expect (Md5_graft.Sfi_full.digest_hex data);
      (* A length outside the buffer is refused before any unchecked
         read could run past it. *)
      List.iter
        (fun len ->
          check_bool
            (Printf.sprintf "len %d refused" len)
            true
            (match Md5_graft.Unsafe.digest ~len data with
            | exception Invalid_argument _ -> true
            | _ -> false))
        [ -1; size + 1 ])
    [ 64; 256; 4096; 65536 ]

let prop_md5_graft_matches_reference =
  QCheck.Test.make ~name:"md5 graft matches reference md5" ~count:100
    QCheck.(string_of_size Gen.(int_range 0 512))
    (fun s ->
      let data = Bytes.of_string s in
      Md5_graft.Checked.digest_hex data
      = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data))

(* ---------- logical disk graft ---------- *)

let test_logdisk_graft_all_regimes () =
  let config = { Graft_kernel.Logdisk.nblocks = 1024; segment_blocks = 16 } in
  let r = Prng.create 88L in
  let workload = Array.init 500 (fun _ -> Prng.int r 1024) in
  let reference =
    Graft_kernel.Logdisk.run config
      (Graft_kernel.Logdisk.native_policy config)
      workload
  in
  List.iter
    (fun (name, (module A : Access.S)) ->
      let module L = Logdisk_graft.Make (A) in
      let result =
        Graft_kernel.Logdisk.run config (L.make_policy ~nblocks:1024 ())
          workload
      in
      if result.Graft_kernel.Logdisk.mapping_errors <> 0 then
        Alcotest.failf "%s: mapping errors" name;
      if
        result.Graft_kernel.Logdisk.segments_flushed
        <> reference.Graft_kernel.Logdisk.segments_flushed
      then Alcotest.failf "%s: segment count differs" name)
    evict_modules

(* ---------- GEL / script sources compile ---------- *)

let test_gel_sources_compile () =
  List.iter
    (fun src ->
      match Graft_gel.Gel.compile src with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "GEL source: %s" (Graft_gel.Srcloc.to_string e))
    [
      Gel_sources.evict ~heap_cells:256;
      Gel_sources.md5 ~data_cells:1024;
      Gel_sources.logdisk ~nblocks:128;
    ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_grafts"
    [
      ( "access",
        [
          Alcotest.test_case "unsafe" `Quick test_unsafe_no_checks;
          Alcotest.test_case "checked bounds" `Quick test_checked_bounds;
          Alcotest.test_case "checked-nil" `Quick test_checked_nil_behaves_like_checked;
          Alcotest.test_case "sfi confines" `Quick test_sfi_confines;
          Alcotest.test_case "sfi-wj reads" `Quick test_sfi_wj_reads_unconfined;
          Alcotest.test_case "regimes agree" `Quick test_all_regimes_agree_in_bounds;
        ] );
      ( "layout",
        [
          Alcotest.test_case "chains" `Quick test_layout_chains;
          Alcotest.test_case "shuffled order" `Quick test_layout_shuffled_preserves_order;
          Alcotest.test_case "too small" `Quick test_layout_too_small;
          Alcotest.test_case "empty lists" `Quick test_layout_empty_lists;
        ] );
      ( "evict",
        [
          Alcotest.test_case "contains all regimes" `Quick test_evict_contains_all_regimes;
          Alcotest.test_case "choose all regimes" `Quick test_evict_choose_all_regimes;
          Alcotest.test_case "empty lru" `Quick test_evict_empty_lru;
          Alcotest.test_case "all hot" `Quick test_evict_all_hot_falls_back;
        ]
        @ qc [ prop_evict_matches_reference ] );
      ( "md5",
        [
          Alcotest.test_case "RFC vectors" `Quick test_md5_graft_rfc_vectors;
          Alcotest.test_case "all regimes pow2" `Quick test_md5_graft_all_regimes_pow2;
        ]
        @ qc [ prop_md5_graft_matches_reference ] );
      ( "logdisk",
        [ Alcotest.test_case "all regimes" `Quick test_logdisk_graft_all_regimes ] );
      ( "sources",
        [ Alcotest.test_case "GEL compiles" `Quick test_gel_sources_compile ] );
    ]
