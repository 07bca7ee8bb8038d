(* Tests for graft_metrics: the Graftmeter registry, its gating, the
   OpenMetrics exposition, and the JSON export (parsed back with
   Minijson rather than string-matched). *)

module M = Graft_metrics
module Minijson = Graft_util.Minijson

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Each test runs against a clean, enabled registry. *)
let with_registry f () =
  M.reset ();
  M.enable ();
  Fun.protect ~finally:(fun () -> M.disable ()) f

let test_counter_gating () =
  let c = M.counter "test_gated" [ ("k", "v") ] in
  M.disable ();
  M.inc c;
  M.add c 10;
  check_int "disabled counter stays 0" 0 (M.counter_value c);
  M.enable ();
  M.inc c;
  M.add c 2;
  check_int "enabled counter counts" 3 (M.counter_value c)

(* [with_enabled] puts the flag back when its body returns or raises. *)
let test_with_enabled_restores () =
  M.disable ();
  check_bool "on inside" true (M.with_enabled true M.enabled);
  check_bool "off after" false (M.enabled ());
  M.enable ();
  (try M.with_enabled false (fun () -> raise Exit) with Exit -> ());
  check_bool "on after a raise" true (M.enabled ());
  M.disable ()

let test_gauge_ungated () =
  let g = M.gauge "test_gauge" [] in
  M.disable ();
  M.set g 4.5;
  M.enable ();
  Alcotest.(check (float 1e-9)) "gauge set while disabled" 4.5
    (M.gauge_value g)

let test_dedupe () =
  let a = M.counter "test_dedupe" [ ("x", "1"); ("y", "2") ] in
  (* Same name, same labels in a different order: the same cell. *)
  let b = M.counter "test_dedupe" [ ("y", "2"); ("x", "1") ] in
  M.inc a;
  M.inc b;
  check_int "one cell behind both handles" 2 (M.counter_value a);
  check_int "same cell via either handle" 2 (M.counter_value b);
  check_bool "kind clash rejected" true
    (try
       ignore (M.gauge "test_dedupe" [ ("x", "1"); ("y", "2") ]);
       false
     with Invalid_argument _ -> true)

let test_reset_keeps_registrations () =
  let c = M.counter "test_reset" [] in
  M.add c 5;
  M.reset ();
  check_int "value zeroed" 0 (M.counter_value c);
  M.inc c;
  check_int "handle still live" 1 (M.counter_value c)

let test_openmetrics_shape () =
  let c = M.counter "test_om" ~help:"a counter" [ ("g", "x") ] in
  M.add c 7;
  let h = M.histogram "test_om_hist" [] in
  M.observe h 3;
  M.observe h 100;
  let text = M.to_openmetrics () in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "TYPE line" true (has "# TYPE test_om counter");
  check_bool "HELP line" true (has "# HELP test_om a counter");
  check_bool "_total suffix" true (has "test_om_total{g=\"x\"} 7");
  check_bool "histogram buckets" true (has "test_om_hist_bucket{le=\"");
  check_bool "+Inf bucket" true (has "le=\"+Inf\"} 2");
  check_bool "histogram sum" true (has "test_om_hist_sum 103");
  check_bool "histogram count" true (has "test_om_hist_count 2");
  check_bool "EOF terminator" true
    (let tail = "# EOF\n" in
     String.length text >= String.length tail
     && String.sub text (String.length text - String.length tail)
          (String.length tail) = tail)

let test_json_parses () =
  let c = M.counter "test_json" [ ("a", "b\"c") ] in
  M.add c 2;
  match Minijson.parse (M.to_json ()) with
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  | Ok doc ->
      let series =
        Option.get (Option.bind (Minijson.member "series" doc) Minijson.to_list)
      in
      check_bool "series present" true (List.length series >= 1);
      let mine =
        List.find
          (fun s ->
            Option.bind (Minijson.member "name" s) Minijson.to_string
            = Some "test_json")
          series
      in
      Alcotest.(check (option (float 1e-9))) "value" (Some 2.0)
        (Option.bind (Minijson.member "value" mine) Minijson.to_float)

(* A canned kernel scenario populates the instrumented families. *)
let test_scenario_populates () =
  (List.assoc "all" Graft_report.Scenarios.by_name) ();
  let text = M.to_openmetrics () in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun fam -> check_bool (fam ^ " present") true (has ("# TYPE " ^ fam)))
    [
      "graftkit_manager_invocations"; "graftkit_streams_pushes";
      "graftkit_logdisk_map_writes"; "graftkit_vm_sessions";
    ];
  let fp = M.counter "graftkit_manager_invocations" [ ("graft", "fp") ] in
  check_bool "md5 graft invoked" true (M.counter_value fp > 0)

(* An OpenMetrics line is a comment or starts with a sample: a metric
   name, optional [{labels}], one space and a number. *)
let sample_line line =
  let n = String.length line in
  let name_start c =
    c = '_' || c = ':' || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
  in
  let name_char c = name_start c || (c >= '0' && c <= '9') in
  let num_char c = (c >= '0' && c <= '9') || String.contains ".eE+-" c in
  if n > 0 && line.[0] = '#' then true
  else if n = 0 || not (name_start line.[0]) then false
  else
    let i = ref 1 in
    while !i < n && name_char line.[!i] do incr i done;
    (if !i < n && line.[!i] = '{' then
       match String.index_from_opt line !i '}' with
       | Some j -> i := j + 1
       | None -> i := n);
    !i + 1 < n && line.[!i] = ' ' && num_char line.[!i + 1]

(* [graftkit metrics all] end to end: every line is a sample or a
   comment, the instrumented families carry TYPE lines (the histogram
   with its +Inf bucket, count and sum), the exposition ends with
   [# EOF], and the JSON form parses. *)
let test_cli_exposition () =
  let code, text = Cli.graftkit [ "metrics"; "all" ] in
  check_int "exit" 0 code;
  let lines = String.split_on_char '\n' (String.trim text) in
  List.iter
    (fun l -> if not (sample_line l) then Alcotest.failf "not a sample: %S" l)
    lines;
  let has_line l = check_bool l true (List.mem l lines) in
  let has_prefix p =
    check_bool p true (List.exists (String.starts_with ~prefix:p) lines)
  in
  has_line "# TYPE graftkit_manager_invocations counter";
  has_prefix "graftkit_manager_invocations_total{graft=";
  has_line "# TYPE graftkit_logdisk_segment_fill histogram";
  has_prefix "graftkit_logdisk_segment_fill_bucket{le=\"+Inf\"}";
  has_prefix "graftkit_logdisk_segment_fill_count ";
  has_prefix "graftkit_logdisk_segment_fill_sum ";
  has_line "# TYPE graftkit_vm_sessions counter";
  Alcotest.(check string) "last line" "# EOF" (List.hd (List.rev lines));
  let code, json = Cli.graftkit [ "metrics"; "all"; "-f"; "json" ] in
  check_int "json exit" 0 code;
  match Minijson.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("metrics all JSON does not parse: " ^ e)

let () =
  Alcotest.run "graft_metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter gating" `Quick
            (with_registry test_counter_gating);
          Alcotest.test_case "gauge ungated" `Quick
            (with_registry test_gauge_ungated);
          Alcotest.test_case "scoped flag restores" `Quick
            test_with_enabled_restores;
          Alcotest.test_case "dedupe" `Quick (with_registry test_dedupe);
          Alcotest.test_case "reset" `Quick
            (with_registry test_reset_keeps_registrations);
        ] );
      ( "export",
        [
          Alcotest.test_case "openmetrics shape" `Quick
            (with_registry test_openmetrics_shape);
          Alcotest.test_case "json parses" `Quick
            (with_registry test_json_parses);
          Alcotest.test_case "scenario populates" `Quick
            (with_registry test_scenario_populates);
          Alcotest.test_case "graftkit metrics all" `Quick test_cli_exposition;
        ] );
    ]
