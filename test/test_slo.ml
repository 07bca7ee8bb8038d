(* Tests for graft_slo: window merge algebra, percentile ordering on
   the log-linear histograms, burn-rate monotonicity, fairness index
   bounds, the MTTR state machine against hand-built fault timelines,
   the serve harness's determinism, and the serve gate's verdict
   logic. *)

module Histo = Graft_trace.Histo
module Window = Graft_slo.Window
module Fairness = Graft_slo.Fairness
module Slo = Graft_slo.Slo
module Mttr = Graft_slo.Mttr
module Serve = Graft_slo.Serve
module Servebench = Graft_slo.Servebench
module Gate = Graft_report.Gate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Histogram layout properties (the subbits generalization).           *)
(* ------------------------------------------------------------------ *)

(* (subbits, samples) — samples span several orders of magnitude. *)
let histo_input =
  QCheck.(
    pair (int_range 0 6)
      (list_of_size Gen.(1 -- 200) (int_range 0 2_000_000)))

let prop_count_le_matches_naive =
  QCheck.Test.make ~name:"count_le agrees with a naive bucket walk"
    ~count:300 histo_input (fun (subbits, xs) ->
      let h = Histo.create ~subbits () in
      List.iter (Histo.add h) xs;
      (* The inclusive bound of each sample's bucket, via a probe
         histo: once per sample, not once per pair. *)
      let bounds =
        List.map
          (fun v ->
            let probe = Histo.create ~subbits () in
            Histo.add probe v;
            Histo.percentile probe 1.0)
          xs
      in
      (* count_le at a bucket bound must equal the number of samples
         whose own bucket bound is <= it. *)
      List.for_all
        (fun bound ->
          let naive = List.length (List.filter (fun b -> b <= bound) bounds) in
          Histo.count_le h bound = naive)
        bounds)

let prop_percentiles_ordered =
  QCheck.Test.make ~name:"p50 <= p95 <= p99 <= p999 on every layout"
    ~count:500 histo_input (fun (subbits, xs) ->
      let h = Histo.create ~subbits () in
      List.iter (Histo.add h) xs;
      let p50 = Histo.percentile h 0.50 in
      let p95 = Histo.percentile h 0.95 in
      let p99 = Histo.percentile h 0.99 in
      let p999 = Histo.percentile h 0.999 in
      p50 <= p95 && p95 <= p99 && p99 <= p999)

let prop_finer_layout_tighter =
  QCheck.Test.make
    ~name:"finer subbits never widens the p999 bucket bound" ~count:300
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 1_000_000))
    (fun xs ->
      let bound s =
        let h = Histo.create ~subbits:s () in
        List.iter (Histo.add h) xs;
        Histo.percentile h 0.999
      in
      bound 3 <= bound 0 && bound 6 <= bound 3)

(* ------------------------------------------------------------------ *)
(* Window merge algebra.                                               *)
(* ------------------------------------------------------------------ *)

(* A window as data: a span index plus (latency, error?) observations. *)
let window_gen =
  QCheck.(
    triple (int_range 0 10)
      (list_of_size Gen.(0 -- 50) (int_range 0 100_000))
      (int_range 0 5))

let build (span, lats, errs) =
  let w =
    Window.make ~subbits:3
      ~start_s:(float_of_int span)
      ~stop_s:(float_of_int (span + 1))
      ()
  in
  List.iter (fun l -> Window.observe w ~latency_us:l) lats;
  for _ = 1 to errs do
    Window.error w
  done;
  w

let window_fingerprint w =
  ( w.Window.start_s,
    w.Window.stop_s,
    w.Window.errors,
    Window.good_count w,
    Histo.cumulative w.Window.histo )

let prop_merge_assoc =
  QCheck.Test.make ~name:"window merge is associative" ~count:300
    QCheck.(triple window_gen window_gen window_gen)
    (fun (a, b, c) ->
      let wa () = build a and wb () = build b and wc () = build c in
      window_fingerprint (Window.merge (Window.merge (wa ()) (wb ())) (wc ()))
      = window_fingerprint (Window.merge (wa ()) (Window.merge (wb ()) (wc ()))))

let prop_merge_comm =
  QCheck.Test.make ~name:"window merge is commutative" ~count:300
    QCheck.(pair window_gen window_gen)
    (fun (a, b) ->
      window_fingerprint (Window.merge (build a) (build b))
      = window_fingerprint (Window.merge (build b) (build a)))

let test_recorder_alignment () =
  let r = Window.recorder ~subbits:0 ~width_s:2.0 () in
  Window.record r ~t:0.5 ~latency_us:10;
  Window.record r ~t:1.9 ~latency_us:20;
  Window.record r ~t:2.1 ~latency_us:30;
  Window.record_error r ~t:5.0;
  let ws = Window.windows r in
  check_int "three windows" 3 (List.length ws);
  let w0 = List.nth ws 0 in
  check_float "w0 start" 0.0 w0.Window.start_s;
  check_float "w0 stop" 2.0 w0.Window.stop_s;
  check_int "w0 count" 2 (Window.good_count w0);
  let w2 = List.nth ws 2 in
  check_float "w2 start" 4.0 w2.Window.start_s;
  check_int "w2 errors" 1 w2.Window.errors;
  let all = Window.overall r in
  check_int "overall total" 4 (Window.total all);
  check_float "overall span lo" 0.0 all.Window.start_s;
  check_float "overall span hi" 6.0 all.Window.stop_s

(* ------------------------------------------------------------------ *)
(* SLO burn.                                                           *)
(* ------------------------------------------------------------------ *)

let prop_burn_monotone_in_errors =
  QCheck.Test.make
    ~name:"burn rate is monotone in the error count" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 50) (int_range 0 10_000))
        (int_range 0 20) (int_range 1 10))
    (fun (lats, errs, extra) ->
      let o = Slo.objective ~name:"t" ~latency_us:5_000 ~target:0.99 in
      let burn n =
        let w = build (0, lats, 0) in
        for _ = 1 to n do
          Window.error w
        done;
        (Slo.assess o w).Slo.a_burn
      in
      burn (errs + extra) >= burn errs)

let test_assess_counts () =
  let o = Slo.objective ~name:"t" ~latency_us:1_000 ~target:0.9 in
  let w = Window.make ~subbits:0 ~start_s:0.0 ~stop_s:1.0 () in
  (* 8 fast (bucket bound <= 1000), 1 slow, 1 error: bad = 2 of 10. *)
  for _ = 1 to 8 do
    Window.observe w ~latency_us:500
  done;
  Window.observe w ~latency_us:100_000;
  Window.error w;
  let a = Slo.assess o w in
  check_int "total" 10 a.Slo.a_total;
  check_int "good" 8 a.Slo.a_good;
  check_int "bad" 2 a.Slo.a_bad;
  check_float "burn" 2.0 a.Slo.a_burn;
  check_float "budget" (-1.0) a.Slo.a_budget_left

let test_burn_alerts_multiwindow () =
  let o = Slo.objective ~name:"t" ~latency_us:1_000 ~target:0.99 in
  (* One isolated bad window among many good ones: short burn is huge,
     the long window dilutes it below the page threshold. *)
  let quiet span = build (span, List.init 100 (fun _ -> 10), 0) in
  let noisy span = build (span, List.init 100 (fun _ -> 10), 50) in
  let windows = [ quiet 0; quiet 1; quiet 2; noisy 3; quiet 4; quiet 5 ] in
  let alerts = Slo.burn_alerts ~long_of:3 o windows in
  check_int "one alert" 1 (List.length alerts);
  let al = List.hd alerts in
  check_bool "ticket, not page" true (al.Slo.al_severity = Slo.Ticket);
  (* The same spike with a short memory pages: long window = itself. *)
  let alerts = Slo.burn_alerts ~long_of:1 o [ noisy 0 ] in
  check_bool "page when the long window agrees" true
    (List.exists (fun a -> a.Slo.al_severity = Slo.Page) alerts)

(* ------------------------------------------------------------------ *)
(* Fairness.                                                           *)
(* ------------------------------------------------------------------ *)

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain index lies in [1/n, 1]" ~count:500
    QCheck.(list_of_size Gen.(1 -- 40) (float_range 0.0 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Fairness.jain a in
      let n = float_of_int (Array.length a) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let test_jain_known () =
  check_float "all equal" 1.0 (Fairness.jain [| 3.0; 3.0; 3.0; 3.0 |]);
  check_float "one hog, n=4" 0.25 (Fairness.jain [| 7.0; 0.0; 0.0; 0.0 |]);
  check_float "empty" 1.0 (Fairness.jain [||]);
  check_float "max_min equal" 1.0 (Fairness.max_min [| 2.0; 2.0 |]);
  check_float "max_min starved" 0.0 (Fairness.max_min [| 2.0; 0.0 |])

let test_shares_normalized () =
  (* Tenant 0 demands 4x tenant 1 and receives 4x: perfectly fair. *)
  let xs = Fairness.shares ~demand:[| 400; 100 |] ~goodput:[| 200; 50 |] in
  check_int "two shares" 2 (Array.length xs);
  check_float "share 0" 1.0 xs.(0);
  check_float "share 1" 1.0 xs.(1);
  check_float "jain of fair shares" 1.0 (Fairness.jain xs);
  (* Tenant 1 loses half its goodput to faults. *)
  let xs = Fairness.shares ~demand:[| 100; 100 |] ~goodput:[| 100; 50 |] in
  check_bool "unfair shares dent jain" true (Fairness.jain xs < 1.0)

(* ------------------------------------------------------------------ *)
(* MTTR state machine.                                                 *)
(* ------------------------------------------------------------------ *)

let test_mttr_reenable_timeline () =
  let m = Mttr.create () in
  (* Healthy traffic, a fault at t=10, fallbacks during backoff, the
     graft answers again at t=14: one incident, MTTR 4s. *)
  Mttr.observe m ~now:1.0 ~quarantined:false Mttr.Graft_ok;
  Mttr.observe m ~now:10.0 ~quarantined:false Mttr.Faulted;
  Mttr.observe m ~now:11.0 ~quarantined:false Mttr.Fallback_ok;
  Mttr.observe m ~now:12.0 ~quarantined:false Mttr.Fallback_ok;
  Mttr.observe m ~now:14.0 ~quarantined:false Mttr.Graft_ok;
  let s = Mttr.summarize m in
  check_int "one incident" 1 s.Mttr.m_incidents;
  check_int "none open" 0 s.Mttr.m_open;
  check_float "mttr" 4.0 s.Mttr.m_mean_s;
  (* Repeated faults extend the same incident rather than opening a
     second one. *)
  Mttr.observe m ~now:20.0 ~quarantined:false Mttr.Faulted;
  Mttr.observe m ~now:21.0 ~quarantined:false Mttr.Faulted;
  Mttr.observe m ~now:25.0 ~quarantined:false Mttr.Graft_ok;
  let s = Mttr.summarize m in
  check_int "two incidents" 2 s.Mttr.m_incidents;
  check_float "mean of 4 and 5" 4.5 s.Mttr.m_mean_s;
  check_float "max" 5.0 s.Mttr.m_max_s

let test_mttr_quarantine_timeline () =
  let m = Mttr.create () in
  (* A fault at t=5; fallback at t=6 while merely disabled does NOT
     close the incident; quarantine observed at t=8; the next fallback
     at t=9 is the steady state and closes it: MTTR 4s. *)
  Mttr.observe m ~now:5.0 ~quarantined:false Mttr.Faulted;
  Mttr.observe m ~now:6.0 ~quarantined:false Mttr.Fallback_ok;
  let s = Mttr.summarize m in
  check_int "still open" 1 s.Mttr.m_open;
  Mttr.observe m ~now:8.0 ~quarantined:true Mttr.Faulted;
  Mttr.observe m ~now:9.0 ~quarantined:true Mttr.Fallback_ok;
  let s = Mttr.summarize m in
  check_int "closed by post-quarantine fallback" 1 s.Mttr.m_incidents;
  check_int "none open" 0 s.Mttr.m_open;
  check_float "mttr from first strike" 4.0 s.Mttr.m_mean_s;
  let inc = List.hd (Mttr.incidents m) in
  check_bool "incident marked quarantined" true inc.Mttr.i_quarantined

let test_mttr_censored () =
  let m = Mttr.create () in
  Mttr.observe m ~now:3.0 ~quarantined:false Mttr.Faulted;
  Mttr.observe m ~now:4.0 ~quarantined:false Mttr.Fallback_ok;
  let s = Mttr.summarize m in
  check_int "open, not closed" 1 s.Mttr.m_open;
  check_int "no closed incidents" 0 s.Mttr.m_incidents;
  check_float "no MTTR from censored incidents" 0.0 s.Mttr.m_mean_s

(* ------------------------------------------------------------------ *)
(* The serve harness.                                                  *)
(* ------------------------------------------------------------------ *)

let tiny =
  Serve.
    {
      smoke with
      tenants = 4;
      duration_s = 3.0;
      base_rate = 25.0;
      window_s = 1.0;
      snapshot_every_s = 1.0;
      narms = 2;
    }

let test_serve_deterministic () =
  let a = Serve.run tiny in
  let b = Serve.run tiny in
  check_bool "same seed, same JSON" true (Serve.to_json a = Serve.to_json b);
  let c = Serve.run { tiny with seed = 43 } in
  check_bool "different seed, different traffic" true
    (a.Serve.r_ops <> c.Serve.r_ops || Serve.to_json a <> Serve.to_json c)

let test_serve_shape () =
  let r = Serve.run tiny in
  check_bool "ops flowed" true (r.Serve.r_ops > 0);
  check_int "every op accounted" r.Serve.r_ops
    (r.Serve.r_good + r.Serve.r_errors);
  check_bool "percentiles ordered" true
    (r.Serve.r_p50_us <= r.Serve.r_p95_us
    && r.Serve.r_p95_us <= r.Serve.r_p99_us
    && r.Serve.r_p99_us <= r.Serve.r_p999_us);
  check_bool "faults produce incidents" true
    (r.Serve.r_faults = 0
    || r.Serve.r_mttr.Mttr.m_incidents + r.Serve.r_mttr.Mttr.m_open > 0);
  check_int "tenant rows" tiny.Serve.tenants (List.length r.Serve.r_tenants);
  check_bool "snapshots taken" true (List.length r.Serve.r_snapshots >= 2);
  check_bool "forced strikes quarantined tenant 0's demux" true
    (r.Serve.r_quarantined >= 1);
  let demand_sum =
    List.fold_left (fun a t -> a + t.Serve.ts_demand) 0 r.Serve.r_tenants
  in
  check_int "tenant demand sums to ops" r.Serve.r_ops demand_sum

(* The OpenMetrics snapshot a serve run leaves ([serve --openmetrics])
   carries the trace-drop gauge and the per-graft supervision series,
   and ends with [# EOF]. *)
let test_serve_openmetrics () =
  ignore (Serve.run tiny);
  let lines =
    String.split_on_char '\n' (String.trim (Graft_metrics.to_openmetrics ()))
  in
  List.iter
    (fun p ->
      check_bool p true (List.exists (String.starts_with ~prefix:p) lines))
    [
      "graftkit_trace_dropped_events "; "graftkit_manager_state{graft=";
      "graftkit_manager_strikes{graft="; "graftkit_manager_invocations_total{graft=";
    ];
  Alcotest.(check string) "last line" "# EOF" (List.hd (List.rev lines))

(* Set-up allocation budget: one tenant per tier (GEL compile,
   analysis, verification, JIT and register-VM compile, maps, and the
   tenant's packet, chunk and arrival pools) takes about 0.9M minor
   words. The budget fails if the stack verifier walks counted loops
   once per iteration or the PRNG boxes its draws. *)
let test_serve_setup_allocation () =
  let mgr = Graft_core.Manager.create () in
  let make lo hi =
    let w0 = Gc.minor_words () in
    for i = lo to hi do
      ignore (Sys.opaque_identity (Serve.make_tenant mgr Serve.default i))
    done;
    Gc.minor_words () -. w0
  in
  let words = make 0 5 in
  if words >= 1.5e6 then
    Alcotest.failf "make_tenant 0-5 allocated %.0f minor words (budget 1.5M)"
      words;
  (* Tenants 6-11 run the same six modules: they pay their instances
     (memory, maps, sessions, JIT closures) and input pools, not the
     front end, compile or verify again. *)
  let again = make 6 11 in
  if again > 0.4 *. words then
    Alcotest.failf
      "make_tenant 6-11 allocated %.0f minor words, over 40%% of 0-5's %.0f"
      again words

(* ---------- shared modules ---------- *)

module Runners = Graft_core.Runners
module Manager = Graft_core.Manager

let loads mgr = Runners.module_count (Manager.modules mgr)

(* A kernel loads each distinct module once: the default set-up's 206
   GEL grafts (56 tenants x 4, less the native MD5 and evict grafts of
   the 9 sfi-full tenants) are 22 modules; a second manager loads its
   own; and the shards of a 2-domain run, which own the even and the
   odd tenants, load 10 and 12. *)
let test_modules_per_kernel () =
  let cfg = Serve.default in
  let setup tenants =
    let mgr = Manager.create () in
    check_int "empty at create" 0 (loads mgr);
    List.iter (fun i -> ignore (Serve.make_tenant mgr cfg i)) tenants;
    mgr
  in
  let all = List.init cfg.Serve.tenants Fun.id in
  let gel =
    List.fold_left
      (fun n i ->
        let tech = Serve.tech_rotation.(i mod Array.length Serve.tech_rotation) in
        n + 2 + if Runners.regime tech = Runners.Vm then 2 else 0)
      0 all
  in
  check_int "GEL grafts" 206 gel;
  let first = setup all in
  check_int "one manager" 22 (loads first);
  let second = setup all in
  check_int "a second manager" 22 (loads second);
  check_int "the first unchanged" 22 (loads first);
  let shard k = setup (List.filter (fun i -> i mod 2 = k) all) in
  check_int "shard 0 of 2" 10 (loads (shard 0));
  check_int "shard 1 of 2" 12 (loads (shard 1))

(* Every answer a tenant's grafts give, and its maps' entries. *)
let transcript (t : Serve.tenant) =
  let b = Buffer.create 4096 in
  let open Runners in
  Array.iter (fun p -> Printf.bprintf b "d%d " (t.Serve.demux_r.demux p))
    t.Serve.packets;
  for i = 0 to 299 do
    Printf.bprintf b "h%d " (t.Serve.hotset_r.touch (i * 7 mod 200))
  done;
  Array.iter
    (fun c ->
      t.Serve.stream_r.load c;
      t.Serve.stream_r.compute (Bytes.length c);
      Printf.bprintf b "%s " (t.Serve.stream_r.digest_hex ()))
    t.Serve.chunks;
  t.Serve.evict_r.refresh
    ~hot:(Array.init 32 (fun i -> i * 3))
    ~lru:(Array.init 64 (fun i -> 200 + i));
  for p = 0 to 99 do
    Printf.bprintf b "%b " (t.Serve.evict_r.contains p)
  done;
  Printf.bprintf b "v%d " (t.Serve.evict_r.choose ());
  for k = 0 to 63 do
    Printf.bprintf b "c%d "
      (Graft_kernel.Graftmap.lookup t.Serve.demux_r.d_conn k)
  done;
  for p = 0 to 199 do
    Printf.bprintf b "m%d %b "
      (Graft_kernel.Graftmap.lookup t.Serve.hotset_r.h_map p)
      (t.Serve.hotset_r.hot p)
  done;
  Buffer.contents b

(* Tenants i and i + 6 run one tier, so in one manager they share its
   modules. Driving tenant i through all four grafts, with hot-set
   evictions, a refreshed evict window and a fault inside the shared
   MD5 program (a compute past the data window), leaves tenant i + 6
   answering exactly as the same tenant built alone. *)
let test_shared_module_isolation () =
  let cfg = Serve.default in
  let mgr = Manager.create () in
  let tenants = Array.init 12 (fun i -> Serve.make_tenant mgr cfg i) in
  check_int "twelve tenants, six tiers" 22 (loads mgr);
  for i = 0 to 5 do
    let a = tenants.(i) and b = tenants.(i + 6) in
    ignore (transcript a);
    (* sfi-full's MD5 is native and refuses the length instead. *)
    (match a.Serve.stream_r.Runners.compute 100_000 with
    | () -> Alcotest.fail "compute past the data window returned"
    | exception (Graft_mem.Fault.Fault _ | Invalid_argument _) -> ());
    let alone = Serve.make_tenant (Manager.create ()) cfg (i + 6) in
    Alcotest.(check string)
      (Graft_core.Technology.name b.Serve.t_tech ^ " tenant answers alone")
      (transcript alone) (transcript b)
  done

let test_serve_json_parses () =
  let r = Serve.run tiny in
  let open Graft_util.Minijson in
  let parse_doc what json =
    match parse json with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "%s JSON does not parse: %s" what msg
  in
  let doc = parse_doc "serve" (Serve.to_json r) in
  let num_of d k =
    match Option.bind (member k d) to_float with
    | Some v -> v
    | None -> Alcotest.failf "no number %S" k
  in
  let num = num_of doc in
  let ordered d =
    num_of d "p50_us" <= num_of d "p95_us"
    && num_of d "p95_us" <= num_of d "p99_us"
    && num_of d "p99_us" <= num_of d "p999_us"
  in
  check_float "schema" 3.0 (num "schema_version");
  (* No object anywhere in the document repeats a key. *)
  let rec unique_keys = function
    | Obj kvs ->
        let keys = List.map fst kvs in
        List.length (List.sort_uniq compare keys) = List.length keys
        && List.for_all (fun (_, v) -> unique_keys v) kvs
    | List l -> List.for_all unique_keys l
    | _ -> true
  in
  check_bool "no repeated key" true (unique_keys doc);
  List.iter
    (fun k ->
      check_bool ("envelope " ^ k) true
        (Option.bind (member k doc) to_string <> None))
    [ "host"; "ocaml" ];
  check_bool "suite tag" true
    (Option.bind (member "suite" doc) to_string = Some "serve");
  check_float "seed" (float_of_int tiny.Serve.seed) (num "seed");
  check_float "tenant count" (float_of_int tiny.Serve.tenants) (num "tenants");
  check_float "one domain" 1.0 (num "domains");
  check_float "ops round-trips" (float_of_int r.Serve.r_ops) (num "ops");
  check_float "every op accounted" (num "ops") (num "good" +. num "errors");
  check_bool "percentiles ordered" true (ordered doc);
  check_bool "jain in [0, 1]" true (num "jain" >= 0.0 && num "jain" <= 1.0);
  check_bool "burn non-negative" true (num "burn" >= 0.0);
  check_bool "faults produce incidents" true
    (num "mttr_incidents" +. num "mttr_open" > 0.0);
  check_bool "forced strikes quarantine" true (num "quarantined" >= 1.0);
  check_bool "mttr present" true (num "mttr_mean_s" >= 0.0);
  let tenants =
    match Option.bind (member "per_tenant" doc) to_list with
    | Some l -> l
    | None -> Alcotest.fail "no per_tenant array"
  in
  check_int "tenant rows" tiny.Serve.tenants (List.length tenants);
  List.iter
    (fun t -> check_bool "tenant percentiles ordered" true (ordered t))
    tenants;
  (match Option.bind (member "snapshots" doc) to_list with
  | Some l -> check_bool "snapshot series" true (List.length l >= 2)
  | None -> Alcotest.fail "no snapshots array");
  let snaps = parse_doc "snapshots" (Serve.snapshots_json r) in
  check_bool "snapshots suite" true
    (Option.bind (member "suite" snaps) to_string = Some "serve-snapshots");
  let series = Option.get (Option.bind (member "snapshots" snaps) to_list) in
  check_bool "snapshots taken" true (List.length series >= 2);
  let rec advancing = function
    | a :: (b :: _ as rest) ->
        num_of a "t_s" < num_of b "t_s"
        && num_of a "ops" <= num_of b "ops"
        && advancing rest
    | _ -> true
  in
  check_bool "snapshot times strictly increase, ops never decrease" true
    (advancing series)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* A config that would hang serve (a zero snapshot period never
   advances the snapshot clock), exhaust memory (a tiny period, a vast
   run), divide by zero or generate nothing is rejected by
   [Serve.validate], naming the field, and so by [Serve.run] before any
   work. The run is reached only once validate has raised. *)
let rejects field cfg () =
  let names msg =
    check_bool (Printf.sprintf "%S names %s" msg field) true (contains msg field)
  in
  (match Serve.validate cfg with
  | () -> Alcotest.failf "Serve.validate accepted a bad %s" field
  | exception Invalid_argument msg -> names msg);
  match Serve.run cfg with
  | _ -> Alcotest.failf "Serve.run accepted a bad %s" field
  | exception Invalid_argument msg -> names msg

let rejected_configs =
  [
    ("duration_s", { tiny with Serve.duration_s = 0.0 });
    ("base_rate", { tiny with Serve.base_rate = 0.0 });
    ("window_s", { tiny with Serve.window_s = 0.0 });
    ("snapshot_every_s", { tiny with Serve.snapshot_every_s = 0.0 });
    ("narms", { tiny with Serve.narms = -1 });
    ("lens_threshold_us", { tiny with Serve.lens_threshold_us = -5 });
  ]

(* Configs over [Serve.max_snapshots] or [Serve.max_arrivals]: (test
   label, the field the message must name, config). *)
let capped_configs =
  [
    ( "snapshot_every_s (1e-20 s: 3e20 snapshots)",
      "snapshot_every_s",
      { tiny with Serve.snapshot_every_s = 1e-20 } );
    ( "snapshot_every_s (1e-5 s: 3e5 snapshots)",
      "snapshot_every_s",
      { tiny with Serve.snapshot_every_s = 1e-5 } );
    ("duration_s (1e308 s)", "duration_s", { tiny with Serve.duration_s = 1e308 });
    ("base_rate (1e9/s: 1.2e10 arrivals)", "base_rate", { tiny with Serve.base_rate = 1e9 });
  ]

(* Serve.run installs a trace ring and switches metrics on for its own
   run only. At one domain the shard runs on the caller's domain, so
   the caller's tracer (none, or its own ring) and metrics flag must be
   as it left them afterwards. *)
let test_serve_restores_caller_state () =
  let module T = Graft_trace.Trace in
  T.disable ();
  Graft_metrics.disable ();
  ignore (Serve.run tiny);
  check_bool "tracer still off" false (T.enabled ());
  check_bool "metrics still off" false (Graft_metrics.enabled ());
  T.enable ~capacity:64 ();
  T.instant T.App "caller";
  Graft_metrics.enable ();
  ignore (Serve.run tiny);
  let evs = T.events () in
  check_bool "the caller's ring is back, holding only its own event" true
    (Array.length evs = 1 && evs.(0).T.name = "caller");
  check_bool "metrics still on" true (Graft_metrics.enabled ());
  T.disable ();
  Graft_metrics.disable ()

(* The CLI prints the rejected value as one stderr line and exits 2. *)
let cli_rejects field args () =
  let err = Filename.temp_file "serve" ".err" in
  let code, out = Cli.graftkit ~stderr:err ("serve" :: "--smoke" :: args) in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  check_int "usage-error exit" 2 code;
  check_bool "no report" true (out = "");
  check_bool "one stderr line" true
    (String.index_opt msg '\n' = Some (String.length msg - 1));
  check_bool "names the field" true (contains msg field)

(* [doc] without the envelope members that name the machine it ran
   on (its host and OCaml version). *)
let machine_free doc =
  let v = Serve.schema_version in
  let env = "{" ^ Graft_report.Envelope.prefix ~schema_version:v ^ "," in
  let n = String.length env in
  check_bool "report opens with the envelope" true
    (String.length doc >= n && String.sub doc 0 n = env);
  Printf.sprintf "{\"schema_version\":%d," v
  ^ String.sub doc n (String.length doc - n)

(* serve --smoke --lens --json, byte for byte against a committed
   golden: every field of the report, the lens's retained-op count
   included, is a pure function of (seed, config). *)
let test_serve_json_golden () =
  let r = Serve.run { Serve.smoke with Serve.lens = true } in
  let expected =
    In_channel.with_open_text "serve_expected.json" In_channel.input_all
  in
  Alcotest.(check string) "serve --json matches committed golden" expected
    (machine_free (Serve.to_json r) ^ "\n")

(* ------------------------------------------------------------------ *)
(* The serve gate.                                                     *)
(* ------------------------------------------------------------------ *)

let test_servegate_roundtrip () =
  let r = Serve.run tiny in
  let doc = Servebench.doc r in
  match Gate.parse (Gate.to_json doc) with
  | Error msg -> Alcotest.fail msg
  | Ok base -> (
      match Gate.gate ~baseline:base doc with
      | Error msg -> Alcotest.fail msg
      | Ok checks ->
          check_int "all metrics checked" 9 (List.length checks);
          check_bool "self-comparison passes" true (Gate.passed checks))

(* Serve's numbers are exact, so they gate as degenerate intervals. *)
let test_servegate_verdicts () =
  let c ~hb ~base ~cur =
    let row v =
      { Gate.key = "m"; value = v; ci95_lo = v; ci95_hi = v;
        higher_better = hb; threshold = 0.10 }
    in
    Gate.verdict ~base:(row base) (row cur)
  in
  check_bool "small drift passes" true
    (c ~hb:false ~base:100.0 ~cur:105.0 = Gate.Pass);
  check_bool "latency up = regression" true
    (c ~hb:false ~base:100.0 ~cur:120.0 = Gate.Regression);
  check_bool "latency down = improvement" true
    (c ~hb:false ~base:100.0 ~cur:80.0 = Gate.Improvement);
  check_bool "throughput down = regression" true
    (c ~hb:true ~base:100.0 ~cur:80.0 = Gate.Regression);
  check_bool "throughput up = improvement" true
    (c ~hb:true ~base:100.0 ~cur:120.0 = Gate.Improvement);
  check_bool "zero baseline, zero current" true
    (c ~hb:false ~base:0.0 ~cur:0.0 = Gate.Pass);
  check_bool "zero baseline, nonzero current" true
    (c ~hb:false ~base:0.0 ~cur:1.0 = Gate.Regression)

let test_servegate_config_mismatch () =
  match Gate.parse (Gate.to_json (Servebench.doc (Serve.run tiny))) with
  | Error msg -> Alcotest.fail msg
  | Ok base -> (
      let r' = Serve.run { tiny with seed = 99 } in
      match Gate.gate ~baseline:base (Servebench.doc r') with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "config mismatch must be an error")

(* The CLI reads --baseline before it writes --save-baseline, so one
   file given to both flags still gates the run: a copy of the
   committed baseline with p50 doctored down to 10 us must fail. *)
let test_gate_cli_load_before_save () =
  let base =
    match Gate.load "../BENCH_serve.json" with
    | Ok d -> d
    | Error msg -> Alcotest.fail msg
  in
  let doctor r =
    if r.Gate.key = "p50_us" then
      { r with Gate.value = 10.0; ci95_lo = 10.0; ci95_hi = 10.0 }
    else r
  in
  let path = Filename.temp_file "bench_serve" ".json" in
  Gate.save ~path { base with Gate.rows = List.map doctor base.Gate.rows };
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/graftkit.exe serve --smoke --baseline %s --save-baseline %s \
          > /dev/null 2>&1"
         (Filename.quote path) (Filename.quote path))
  in
  let saved = Gate.load path in
  Sys.remove path;
  check_int "doctored baseline regresses" 1 code;
  match saved with
  | Error msg -> Alcotest.fail msg
  | Ok d ->
      check_bool "fresh run saved over it" true
        (List.exists
           (fun r -> r.Gate.key = "p50_us" && r.Gate.value <> 10.0)
           d.Gate.rows)

(* CI's serve gate as a tier-1 case: serve's numbers are a pure
   function of (seed, config), so a fresh smoke run must pass against
   the committed baseline. *)
let test_smoke_matches_committed_baseline () =
  let code, out =
    Cli.graftkit [ "serve"; "--smoke"; "--baseline"; "../BENCH_serve.json" ]
  in
  check_int "gate exit" 0 code;
  check_bool "no regressions" true (contains out "serve: no regressions")

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_slo"
    [
      ( "histo",
        qc
          [
            prop_count_le_matches_naive; prop_percentiles_ordered;
            prop_finer_layout_tighter;
          ] );
      ( "window",
        qc [ prop_merge_assoc; prop_merge_comm ]
        @ [
            Alcotest.test_case "recorder alignment" `Quick
              test_recorder_alignment;
          ] );
      ( "slo",
        qc [ prop_burn_monotone_in_errors ]
        @ [
            Alcotest.test_case "assess counts" `Quick test_assess_counts;
            Alcotest.test_case "multi-window alerts" `Quick
              test_burn_alerts_multiwindow;
          ] );
      ( "fairness",
        qc [ prop_jain_bounds ]
        @ [
            Alcotest.test_case "known values" `Quick test_jain_known;
            Alcotest.test_case "normalized shares" `Quick
              test_shares_normalized;
          ] );
      ( "mttr",
        [
          Alcotest.test_case "re-enable timeline" `Quick
            test_mttr_reenable_timeline;
          Alcotest.test_case "quarantine timeline" `Quick
            test_mttr_quarantine_timeline;
          Alcotest.test_case "censored incident" `Quick test_mttr_censored;
        ] );
      ( "serve",
        [
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "report shape" `Quick test_serve_shape;
          Alcotest.test_case "json parses" `Quick test_serve_json_parses;
          Alcotest.test_case "openmetrics snapshot" `Quick test_serve_openmetrics;
          Alcotest.test_case "tenant set-up allocation" `Quick
            test_serve_setup_allocation;
          Alcotest.test_case "one module load per kernel" `Quick
            test_modules_per_kernel;
          Alcotest.test_case "shared modules isolate tenants" `Quick
            test_shared_module_isolation;
          Alcotest.test_case "smoke lens json matches committed golden"
            `Quick test_serve_json_golden;
          Alcotest.test_case "restores the caller's tracer and metrics" `Quick
            test_serve_restores_caller_state;
        ]
        @ List.map
            (fun (field, cfg) ->
              Alcotest.test_case ("rejects bad " ^ field) `Quick
                (rejects field cfg))
            rejected_configs
        @ List.map
            (fun (label, field, cfg) ->
              Alcotest.test_case ("rejects bad " ^ label) `Quick
                (rejects field cfg))
            capped_configs
        @ [
            Alcotest.test_case "cli rejects zero snapshot period" `Quick
              (cli_rejects "snapshot_every_s" [ "--snapshot-every"; "0" ]);
            Alcotest.test_case "cli rejects a 1e-20 s snapshot period" `Quick
              (cli_rejects "snapshot_every_s" [ "--snapshot-every"; "1e-20" ]);
            Alcotest.test_case "cli rejects a 1e308 s run" `Quick
              (cli_rejects "duration_s" [ "--duration"; "1e308" ]);
            Alcotest.test_case "cli rejects negative lens threshold" `Quick
              (cli_rejects "lens_threshold_us"
                 [ "--lens"; "--lens-threshold=-5"; "--json" ]);
          ] );
      ( "servegate",
        [
          Alcotest.test_case "baseline roundtrip" `Quick
            test_servegate_roundtrip;
          Alcotest.test_case "verdicts" `Quick test_servegate_verdicts;
          Alcotest.test_case "config mismatch" `Quick
            test_servegate_config_mismatch;
          Alcotest.test_case "load before save" `Quick
            test_gate_cli_load_before_save;
          Alcotest.test_case "smoke run matches committed baseline" `Quick
            test_smoke_matches_committed_baseline;
        ] );
    ]
