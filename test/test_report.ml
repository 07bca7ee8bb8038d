(* Tests for graft_report: paper data sanity and the experiment driver
   (smoke runs at tiny scale — shape and invariants, not wall time). *)

open Graft_report

let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------- paper data ---------- *)

let test_paperdata_platforms () =
  Alcotest.(check int) "table1" 4 (List.length Paperdata.table1_signal_s);
  Alcotest.(check int) "table2" 4 (List.length Paperdata.table2_search);
  Alcotest.(check int) "table5" 4 (List.length Paperdata.table5_md5);
  Alcotest.(check int) "table6" 4 (List.length Paperdata.table6_logdisk)

let test_paperdata_known_factors () =
  (* Paper's normalized factors: Solaris Java = 31.3x on Table 2. *)
  let solaris =
    List.find (fun r -> r.Paperdata.platform = "Solaris") Paperdata.table2_search
  in
  (match Paperdata.normalized solaris.Paperdata.c_s solaris.Paperdata.java_s with
  | Some f -> check_bool "java 31x" true (f > 30.0 && f < 33.0)
  | None -> Alcotest.fail "missing data");
  (match Paperdata.normalized solaris.Paperdata.c_s solaris.Paperdata.m3_s with
  | Some f -> check_bool "m3 1.4x" true (f > 1.3 && f < 1.5)
  | None -> Alcotest.fail "missing data");
  (* Tcl four orders of magnitude. *)
  let tcl_factor = Paperdata.table2_tcl_solaris_s /. 4.5e-6 in
  check_bool "tcl ~4 orders" true (tcl_factor > 5000.0)

(* ---------- experiment driver (smoke) ---------- *)

let test_table2_smoke () =
  let t = Experiments.table2 Experiments.Quick in
  let s = Experiments.render t in
  check_bool "has C row" true (contains s "| C ");
  check_bool "has Modula-3 row" true (contains s "Modula-3");
  check_bool "has Tcl row" true (contains s "Tcl");
  check_bool "has break-even columns" true (contains s "BE Solaris")

let test_table2_ordering () =
  (* The paper's qualitative result must reproduce: compiled ~ C,
     bytecode 10-100x, source interpreter far beyond. *)
  let data = Experiments.table2_data Experiments.Quick in
  let find tech =
    (List.find (fun d -> d.Experiments.tt_tech = tech) data).Experiments.full_s
  in
  let open Graft_core in
  let c = find Technology.Unsafe_c in
  let m3 = find Technology.Safe_lang in
  let sfi = find Technology.Sfi_write_jump in
  let java = find Technology.Bytecode_vm in
  let tcl = find Technology.Source_interp in
  check_bool "m3 within 3x of C" true (m3 < 3.0 *. c);
  check_bool "sfi within 3x of C" true (sfi < 3.0 *. c);
  check_bool "bytecode at least 5x C" true (java > 5.0 *. c);
  check_bool "tcl at least 10x bytecode" true (tcl > 10.0 *. java);
  check_bool "tcl at least 100x C" true (tcl > 100.0 *. c)

let test_figure1_smoke () =
  let t = Experiments.figure1 Experiments.Quick in
  let s = Experiments.render t in
  check_bool "plot present" true (contains s "upcall time");
  check_bool "legend" true (contains s "user-level server")

(* A median below C's leaves no upcall budget: the notes say so rather
   than print a budget of 0s, and price the round trip only against a
   positive budget. *)
let test_figure1_notes () =
  let notes =
    Experiments.figure1_notes ~native_s:690e-9
      ~in_kernel:[ ("Modula-3", 1.2e-6); ("SFI", 659e-9) ]
      ~upcall_rtt_s:(Some 51e-6)
  in
  Alcotest.(check (list string))
    "one technology under C"
    [
      "an upcall must cost under 510ns to match in-kernel Modula-3 (paper: \
       ~5us, 'difficult to achieve')";
      "SFI's median (659ns) does not exceed C's (690ns), so no upcall \
       budget exists for it at this precision";
      "the host's real upcall round trip (forked server over pipes) is 51us \
       — 100x over Modula-3's budget, so user-level servers remain \
       uncompetitive for this graft";
    ]
    notes;
  let notes =
    Experiments.figure1_notes ~native_s:690e-9
      ~in_kernel:[ ("Modula-3", 690e-9); ("SFI", 659e-9) ]
      ~upcall_rtt_s:(Some 51e-6)
  in
  check_bool "no budget, no ratio" true
    (List.for_all
       (fun n -> not (contains n "x over") && not (contains n "under 0s"))
       notes);
  Alcotest.(check int) "two no-budget notes and the round trip" 3
    (List.length notes)

(* The cells of every row of a rendered table, trimmed, header first. *)
let rows s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.length l > 1 && l.[0] = '|')
  |> List.map (fun l ->
         String.sub l 1 (String.length l - 2)
         |> String.split_on_char '|' |> List.map String.trim)

(* A table renders with exactly these headers and these row labels, in
   order, every row as wide as the header. *)
let check_table t headers labels () =
  let s = Experiments.render t in
  match rows s with
  | [] -> Alcotest.fail ("no table in:\n" ^ s)
  | h :: body ->
      Alcotest.(check (list string)) "headers" headers h;
      Alcotest.(check (list string)) "row labels" labels (List.map List.hd body);
      check_bool "full rows" true
        (List.for_all (fun r -> List.length r = List.length h) body)

let q = Experiments.Quick
let names = List.map Graft_core.Technology.paper_name
let all_techs = names Experiments.table_techs
let profiles prefix =
  List.map
    (fun p -> prefix ^ p.Graft_measure.Platform.pname)
    Graft_measure.Platform.paper_profiles

let test_table5 () =
  check_table (Experiments.table5 q)
    ([ "Technology"; "raw (1MB)"; "norm" ] @ profiles "MD5/disk ")
    all_techs ()

let table6 = lazy (Experiments.table6 q)

let test_table6 () =
  check_table (Lazy.force table6)
    [ "Technology"; "raw (262144 writes)"; "norm"; "per block" ]
    all_techs ()

(* Table 6's disk I/O is one figure for the full workload: any policy
   writes the same blocks, and the table prints it once, in a note. *)
let test_table6_io () =
  let open Graft_kernel in
  let io = Experiments.table6_io () in
  Alcotest.(check int) "full workload" Paperdata.logdisk_writes io.Logdisk.writes;
  let workload = Experiments.skewed_workload Paperdata.logdisk_writes in
  List.iter
    (fun tech ->
      let r =
        Logdisk.run Experiments.logdisk_config
          (Graft_core.Runners.logdisk_policy tech
             ~nblocks:Experiments.logdisk_nblocks)
          workload
      in
      check_bool "same I/O under any technology" true
        (r.Logdisk.lsd_io_s = io.Logdisk.lsd_io_s
        && r.Logdisk.inplace_io_s = io.Logdisk.inplace_io_s))
    Graft_core.Technology.[ Unsafe_c; Bytecode_vm ];
  let t = Lazy.force table6 in
  let io_note =
    Printf.sprintf "LSD IO %s, in-place IO %s"
      (Experiments.fmt_time io.Logdisk.lsd_io_s)
      (Experiments.fmt_time io.Logdisk.inplace_io_s)
  in
  check_bool "printed once, in the notes" true
    (List.length (List.filter (fun n -> contains n io_note) t.Experiments.notes) = 1
    && not (contains t.Experiments.body "LSD"))

let test_ablation_vs_c () =
  let open Graft_core.Technology in
  check_table (Experiments.ablation_nil q) [ "Regime"; "raw"; "vs C" ]
    [
      "C (unsafe)"; "Modula-3, trap-based NIL (Solaris/Alpha)";
      "Modula-3, explicit NIL checks (Linux)";
    ] ();
  check_table (Experiments.ablation_sfi q) [ "Protection"; "MD5 raw"; "vs C" ]
    (names [ Unsafe_c; Sfi_write_jump; Sfi_full ]) ();
  check_table (Experiments.ablation_interp q)
    [ "Interpreter"; "hot-list search"; "vs C" ]
    (names [ Unsafe_c; Bytecode_vm; Ast_interp; Source_interp ]) ();
  check_table (Experiments.ablation_pfvm q) [ "Technology"; "per packet"; "vs C" ]
    (names
       [ Unsafe_c; Safe_lang; Specialized_vm; Bytecode_vm; Ast_interp; Source_interp ])
    ();
  check_table (Experiments.ablation_hipec q)
    [ "Mechanism"; "victim selection"; "vs C" ]
    (names [ Unsafe_c; Safe_lang; Bytecode_vm; Ast_interp; Source_interp ]
    @ [ "HiPEC-like policy VM" ])
    ()

(* Each hot-list search is timed once per process, so Table 2, A1 and
   A3 print one number per technology and Figure 1's legend prints
   Table 2's Solaris break-evens. *)
let test_contains_timed_once () =
  let open Graft_core.Technology in
  check_bool "a second call returns the same measurement" true
    (Experiments.measure_contains q Safe_lang == Experiments.measure_contains q Safe_lang);
  let table t = List.tl (rows (Experiments.render t)) in
  let cell t label col = List.nth (List.find (fun r -> List.hd r = label) t) col in
  let t2 = table (Experiments.table2 q) in
  let a1 = table (Experiments.ablation_nil q) in
  let a3 = table (Experiments.ablation_interp q) in
  List.iter
    (fun (t, label, tech) ->
      Alcotest.(check string) label (cell t2 (paper_name tech) 1) (cell t label 1))
    [
      (a1, "C (unsafe)", Unsafe_c);
      (a1, "Modula-3, trap-based NIL (Solaris/Alpha)", Safe_lang);
      (a3, "C", Unsafe_c); (a3, "Java", Bytecode_vm);
      (a3, "AST interpreter", Ast_interp); (a3, "Tcl", Source_interp);
    ];
  let legend = Experiments.render (Experiments.figure1 q) in
  List.iter
    (fun (name, tech) ->
      let be = cell t2 (paper_name tech) 6 in
      check_bool (name ^ " legend is Table 2's BE Solaris") true
        (contains legend (Printf.sprintf "%s in kernel (BE %s)" name be)))
    [ ("Modula-3", Safe_lang); ("SFI", Sfi_write_jump) ]

let test_ablation_regvm () =
  let t = Experiments.ablation_regvm () in
  let s = Experiments.render t in
  check_bool "rows" true (contains s "write+jump");
  check_bool "overhead col" true (contains s "%")

let test_ablation_upcall () =
  let t = Experiments.ablation_upcall () in
  let s = Experiments.render t in
  check_bool "has 64KB row" true (contains s "64KB");
  check_bool "has upcalls" true (contains s "16")

(* The CLI's table list is the only one: every ablation it documents
   must be reachable by name. *)
let test_cli_table_a11 () =
  let code, out = Cli.graftkit [ "tables"; "a11" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_bool "A11 printed" true (contains out "Ablation A11")

let () =
  Alcotest.run "graft_report"
    [
      ( "paperdata",
        [
          Alcotest.test_case "platforms" `Quick test_paperdata_platforms;
          Alcotest.test_case "known factors" `Quick test_paperdata_known_factors;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table2 smoke" `Slow test_table2_smoke;
          Alcotest.test_case "table2 ordering" `Slow test_table2_ordering;
          Alcotest.test_case "figure1 smoke" `Slow test_figure1_smoke;
          Alcotest.test_case "figure1 notes" `Quick test_figure1_notes;
          Alcotest.test_case "table5 headers and rows" `Slow test_table5;
          Alcotest.test_case "table6 headers and rows" `Slow test_table6;
          Alcotest.test_case "table6 I/O is one full-workload figure" `Slow
            test_table6_io;
          Alcotest.test_case "a1 a2 a3 a6 a7 headers and rows" `Slow
            test_ablation_vs_c;
          Alcotest.test_case "hot-list search timed once" `Slow
            test_contains_timed_once;
          Alcotest.test_case "ablation regvm" `Quick test_ablation_regvm;
          Alcotest.test_case "ablation upcall" `Quick test_ablation_upcall;
          Alcotest.test_case "graftkit tables a11" `Quick test_cli_table_a11;
        ] );
    ]
