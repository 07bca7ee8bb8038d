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
          Alcotest.test_case "ablation regvm" `Quick test_ablation_regvm;
          Alcotest.test_case "ablation upcall" `Quick test_ablation_upcall;
          Alcotest.test_case "graftkit tables a11" `Quick test_cli_table_a11;
        ] );
    ]
