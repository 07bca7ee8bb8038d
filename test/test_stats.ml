(* Tests for graft_stats: robust estimation, the measurement harness,
   and the noise-aware regression gate (driven with synthetic numbers
   so no benchmark runs in CI). *)

module Robust = Graft_stats.Robust
module Harness = Graft_stats.Harness
module Gate = Graft_report.Gate
module Tierbench = Graft_report.Tierbench
module Minijson = Graft_util.Minijson

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- deterministic unit tests ---------- *)

let test_median_mad () =
  check_float "median odd" 3.0 (Robust.median [| 5.0; 1.0; 3.0 |]);
  check_float "median even" 2.5 (Robust.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mad" 1.0 (Robust.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_outlier_rejection () =
  let samples = [| 10.0; 11.0; 10.5; 10.2; 10.8; 500.0 |] in
  let kept = Robust.reject_outliers samples in
  check_bool "outlier dropped" true
    (not (Array.exists (fun x -> x = 500.0) kept));
  check_bool "inliers kept" true (Array.length kept = 5);
  (* Small samples are never rejected from. *)
  let tiny = [| 1.0; 100.0; 2.0 |] in
  check_bool "tiny untouched" true (Robust.reject_outliers tiny = tiny)

let test_constant_series () =
  let e = Robust.estimate (Array.make 20 7.5) in
  check_float "median" 7.5 e.Robust.median;
  check_float "cv" 0.0 e.Robust.cv;
  check_float "ci lo" 7.5 e.Robust.ci95_lo;
  check_float "ci hi" 7.5 e.Robust.ci95_hi

let test_bootstrap_deterministic () =
  let samples = Array.init 30 (fun i -> 10.0 +. float_of_int (i mod 7)) in
  let lo1, hi1 = Robust.bootstrap_ci Robust.median samples in
  let lo2, hi2 = Robust.bootstrap_ci Robust.median samples in
  check_float "lo reproducible" lo1 lo2;
  check_float "hi reproducible" hi1 hi2;
  check_bool "interval ordered" true (lo1 <= hi1)

let test_harness_measure () =
  let n = ref 0 in
  let m =
    Harness.measure
      ~config:
        { Harness.quick with
          min_rounds = 3; max_rounds = 5; target_s = 1e-4; gc_fence = false }
      (fun () -> incr n)
  in
  check_bool "op ran" true (!n > 0);
  check_bool "positive time" true (m.Harness.est.Robust.median >= 0.0);
  check_bool "rounds recorded" true (Array.length m.Harness.samples >= 3)

let test_paired_delta () =
  let a = [| 10.0; 10.0; 10.0 |] and b = [| 11.0; 11.0; 11.0 |] in
  let d = Harness.paired_delta_pct a b in
  check_bool "10% slower" true (Float.abs (d.Robust.median -. 10.0) < 1e-9)

(* ---------- qcheck properties ---------- *)

let nonempty_floats =
  QCheck.(
    list_of_size Gen.(int_range 1 60) (float_range 0.001 1e6)
    |> map ~rev:Array.to_list Array.of_list)

let prop_ci_contains_median =
  QCheck.Test.make ~count:100 ~name:"bootstrap CI contains sample median"
    nonempty_floats (fun samples ->
      let m = Robust.median samples in
      let lo, hi = Robust.bootstrap_ci Robust.median samples in
      lo <= m && m <= hi)

let prop_rejection_idempotent =
  QCheck.Test.make ~count:100 ~name:"outlier rejection is idempotent"
    nonempty_floats (fun samples ->
      let once = Robust.reject_outliers samples in
      let twice = Robust.reject_outliers once in
      once = twice)

let prop_constant_cv_zero =
  QCheck.Test.make ~count:50 ~name:"CV of a constant series is 0"
    QCheck.(pair (float_range 0.5 1e3) (int_range 1 40))
    (fun (v, n) -> (Robust.estimate (Array.make n v)).Robust.cv = 0.0)

let prop_estimate_ordered =
  QCheck.Test.make ~count:100 ~name:"estimate CI brackets the median"
    nonempty_floats (fun samples ->
      let e = Robust.estimate samples in
      e.Robust.ci95_lo <= e.Robust.median
      && e.Robust.median <= e.Robust.ci95_hi)

(* ---------- gate verdicts on synthetic baselines ---------- *)

let row ?(hb = false) ?(t = 0.30) key v lo hi =
  { Gate.key; value = v; ci95_lo = lo; ci95_hi = hi; higher_better = hb;
    threshold = t }

let test_gate_verdicts () =
  let v ~base:(lo, hi) cur = Gate.verdict ~base:(row "k" 100.0 lo hi) cur in
  (* Overlapping CIs never fail, however far the median moved. *)
  check_bool "overlap passes" true
    (v ~base:(90.0, 110.0) (row "k" 150.0 105.0 160.0) = Gate.Pass);
  (* Disjoint but under threshold: still a pass. *)
  check_bool "small real move passes" true
    (v ~base:(99.0, 101.0) (row "k" 110.0 109.0 111.0) = Gate.Pass);
  (* Disjoint and beyond threshold: regression. *)
  check_bool "real big move regresses" true
    (v ~base:(99.0, 101.0) (row "k" 140.0 138.0 142.0) = Gate.Regression);
  (* Symmetric improvement. *)
  check_bool "improvement detected" true
    (v ~base:(99.0, 101.0) (row "k" 60.0 59.0 61.0) = Gate.Improvement);
  (* The same moves on a higher-better row swap their verdicts. *)
  check_bool "higher-better fall regresses" true
    (v ~base:(99.0, 101.0) (row ~hb:true "k" 60.0 59.0 61.0)
    = Gate.Regression);
  (* An explicit threshold overrides the row's. *)
  check_bool "override loosens" true
    (Gate.verdict ~threshold:3.0 ~base:(row "k" 100.0 99.0 101.0)
       (row "k" 140.0 138.0 142.0)
    = Gate.Pass)

let synthetic =
  {|{"schema_version":5,"host":"ci","ocaml":"5.1.0",
     "suite":"stackvm","cores":2,"config":{},
     "rows":[
       {"key":"md5_64k/interp","value":1000.0,"ci95_lo":990.0,
        "ci95_hi":1010.0,"higher_better":false,"threshold":0.15},
       {"key":"md5_64k/opt","value":400.0,"ci95_lo":395.0,"ci95_hi":405.0,
        "higher_better":false,"threshold":0.15}]}|}

let fresh rows = Gate.make ~suite:"stackvm" ~config:[] rows

(* Tier-suite rows as a timing run hands them to {!Tierbench.doc}. *)
let est median lo hi =
  let e = Robust.estimate [| median |] in
  { e with Robust.median; ci95_lo = lo; ci95_hi = hi }

let tier ?jit graft i o =
  let jit = match jit with Some j -> j | None -> o in
  { Tierbench.graft; interp = i; opt = o; jit; rounds = 15 }

let test_gate_on_parsed_baseline () =
  let baseline =
    match Gate.parse synthetic with Ok b -> b | Error e -> Alcotest.fail e
  in
  let gate tiers =
    match Gate.gate ~baseline (Tierbench.doc tiers) with
    | Ok checks -> checks
    | Error e -> Alcotest.fail e
  in
  (* Unchanged numbers pass. *)
  let ok =
    gate [ tier "md5_64k" (est 1005.0 992.0 1012.0) (est 402.0 396.0 406.0) ]
  in
  check_bool "unchanged passes" true (Gate.passed ok);
  (* The baseline has no jit row, so only interp/opt are gated. *)
  Alcotest.(check int) "two checks" 2 (List.length ok);
  (* Doctored: interp CI-disjoint and 50% over. *)
  let bad =
    gate [ tier "md5_64k" (est 1500.0 1480.0 1520.0) (est 402.0 396.0 406.0) ]
  in
  check_bool "doctored fails" false (Gate.passed bad);
  (* 20% over fails md5_64k's 0.15 default, which 0.30 would pass. *)
  let md5_tight =
    gate [ tier "md5_64k" (est 1200.0 1190.0 1210.0) (est 402.0 396.0 406.0) ]
  in
  check_bool "md5_64k gates at 0.15" false (Gate.passed md5_tight);
  (* Unknown grafts are skipped, not compared. *)
  Alcotest.(check int) "unknown skipped" 0
    (List.length (gate [ tier "unknown" (est 1.0 1.0 1.0) (est 1.0 1.0 1.0) ]));
  (* Another suite is an error, not a verdict. *)
  check_bool "suite mismatch" true
    (Result.is_error
       (Gate.gate ~baseline { (fresh []) with Gate.suite = "serve" }))

let test_roundtrip_json () =
  let roundtrip d =
    match Gate.parse (Gate.to_json d) with
    | Ok d' -> d'
    | Error e -> Alcotest.fail e
  in
  let d =
    Tierbench.doc
      [ tier "md5_64k"
          ~jit:(est (200.0 +. (1.0 /. 3.0)) 198.0 202.37)
          (est 1000.0 990.0 1010.0) (est 400.0 395.0 405.0) ]
  in
  let d' = roundtrip d in
  (* Every number reads back as the same float. *)
  check_bool "roundtrip exact" true (d' = d);
  let checks =
    match Gate.gate ~baseline:d' d with Ok c -> c | Error e -> Alcotest.fail e
  in
  (* The jit row round-trips, and the gate compares it. *)
  Alcotest.(check int) "three checks with jit" 3 (List.length checks);
  check_bool "self-gate passes" true (Gate.passed checks);
  let hb = fresh [ row ~hb:true "x" (1.0 /. 3.0) 0.25 (2.0 /. 3.0) ] in
  check_bool "higher-better roundtrip" true (roundtrip hb = hb)

(* {!Tierbench.doc} is the tier suite's whole policy: three lower-better
   rows per graft, md5_64k at 0.15 and the nanosecond-scale ops at
   0.30, keyed as the committed BENCH_stackvm.json keys them. *)
let test_tier_rows () =
  let grafts =
    [ "evict_contains"; "md5_64k"; "logdisk_map_write"; "packet_filter" ]
  in
  let e = est 100.0 99.0 101.0 in
  let d = Tierbench.doc (List.map (fun g -> tier g e e) grafts) in
  Alcotest.(check string) "suite" "stackvm" d.Gate.suite;
  Alcotest.(check (list string))
    "keys"
    (List.concat_map
       (fun g -> List.map (fun t -> g ^ "/" ^ t) [ "interp"; "opt"; "jit" ])
       grafts)
    (List.map (fun r -> r.Gate.key) d.Gate.rows);
  List.iter
    (fun r ->
      check_bool (r.Gate.key ^ " lower is better") false r.Gate.higher_better;
      check_float (r.Gate.key ^ " threshold")
        (if String.starts_with ~prefix:"md5_64k/" r.Gate.key then 0.15
         else 0.30)
        r.Gate.threshold)
    d.Gate.rows;
  match Gate.load "../BENCH_stackvm.json" with
  | Error e -> Alcotest.fail e
  | Ok baseline -> (
      match Gate.gate ~baseline d with
      | Error e -> Alcotest.fail e
      | Ok checks ->
          Alcotest.(check int) "every committed row gated" 12
            (List.length checks))

(* ---------- the committed baselines ---------- *)

let committed =
  [ ("../BENCH_stackvm.json", "stackvm", 12);
    ("../BENCH_serve.json", "serve", 9);
    ("../BENCH_throughput.json", "serve-throughput", 2) ]

let read path = In_channel.with_open_bin path In_channel.input_all

let test_committed_baselines () =
  List.iter
    (fun (path, suite, n) ->
      match Gate.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok d ->
          Alcotest.(check string) (path ^ " suite") suite d.Gate.suite;
          Alcotest.(check int) (path ^ " rows") n (List.length d.Gate.rows))
    committed

(* A damaged baseline must come back as [Error], never as an
   exception: every truncation of each committed file is an error, and
   random byte mutations of it parse to [Ok] or [Error]. *)
let test_parser_truncations () =
  List.iter
    (fun (path, _, _) ->
      let text = read path in
      for n = 0 to String.length (String.trim text) - 1 do
        match Gate.parse (String.sub text 0 n) with
        | Ok _ -> Alcotest.failf "%s cut at %d parsed" path n
        | Error _ -> ()
      done)
    committed

let prop_parser_total =
  QCheck.Test.make ~count:500 ~name:"mutated baselines never raise"
    QCheck.(
      pair (int_bound 2)
        (list_of_size Gen.(1 -- 4) (pair (int_bound 100_000) char)))
    (fun (which, edits) ->
      let path, _, _ = List.nth committed which in
      let b = Bytes.of_string (read path) in
      List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) edits;
      match Gate.parse (Bytes.to_string b) with Ok _ | Error _ -> true)

(* ---------- minijson ---------- *)

let test_minijson () =
  (match Minijson.parse {| {"a": [1, 2.5, true, null, "x\n"], "b": -3e2} |} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      check_float "num" (-300.0)
        (Option.get (Option.bind (Minijson.member "b" doc) Minijson.to_float));
      let l =
        Option.get (Option.bind (Minijson.member "a" doc) Minijson.to_list)
      in
      Alcotest.(check int) "list length" 5 (List.length l);
      Alcotest.(check (option string)) "escape" (Some "x\n")
        (Minijson.to_string (List.nth l 4)));
  check_bool "trailing junk rejected" true
    (Result.is_error (Minijson.parse "{} extra"));
  check_bool "bad syntax rejected" true (Result.is_error (Minijson.parse "{"))

let () =
  Alcotest.run "graft_stats"
    [
      ( "robust",
        [
          Alcotest.test_case "median/mad" `Quick test_median_mad;
          Alcotest.test_case "outlier rejection" `Quick test_outlier_rejection;
          Alcotest.test_case "constant series" `Quick test_constant_series;
          Alcotest.test_case "bootstrap deterministic" `Quick
            test_bootstrap_deterministic;
        ] );
      ( "harness",
        [
          Alcotest.test_case "measure" `Quick test_harness_measure;
          Alcotest.test_case "paired delta" `Quick test_paired_delta;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ci_contains_median; prop_rejection_idempotent;
            prop_constant_cv_zero; prop_estimate_ordered;
          ] );
      ( "gate",
        [
          Alcotest.test_case "verdict rule" `Quick test_gate_verdicts;
          Alcotest.test_case "parsed baseline" `Quick
            test_gate_on_parsed_baseline;
          Alcotest.test_case "json roundtrip" `Quick test_roundtrip_json;
          Alcotest.test_case "tier rows" `Quick test_tier_rows;
          Alcotest.test_case "committed baselines" `Quick
            test_committed_baselines;
          Alcotest.test_case "truncated baselines" `Quick
            test_parser_truncations;
          QCheck_alcotest.to_alcotest prop_parser_total;
          Alcotest.test_case "minijson" `Quick test_minijson;
        ] );
    ]
