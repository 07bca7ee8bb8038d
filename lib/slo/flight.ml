(** The Graftlens flight recorder.

    When a serve run pages or quarantines a graft, [serve --flight-dir
    DIR] dumps a post-mortem bundle: the Chrome trace of retained
    spans (one process per domain), the offending SLO windows, the
    fault-plan state, and a strike-ledger snapshot — each file under
    the shared report envelope. Everything here is rendered from the
    run's {!Serve.lens_out}, whose rings use the logical clock, so the
    bundle is a pure function of (seed, config): two same-seed runs
    produce byte-identical bundles, which is what makes one attachable
    to a bug report as ground truth. *)

let schema_version = 1

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* A recording is warranted when the run produced the evidence the
   recorder exists to explain: a page alert or a quarantine. *)
let triggered (r : Serve.result) =
  r.Serve.r_alerts_page > 0 || r.Serve.r_quarantined > 0

let chrome_trace (lo : Serve.lens_out) =
  Graft_trace.Export.chrome_json_of
    ~extra:(Graft_report.Envelope.fields ~schema_version)
    (List.map
       (fun (k, evs, dropped) ->
         Graft_trace.Export.
           {
             p_pid = k + 1;
             p_name = Printf.sprintf "domain-%d" k;
             p_events = evs;
             p_dropped = dropped;
           })
       lo.Serve.lo_shards)

let windows_json (r : Serve.result) =
  let offending =
    List.filter
      (fun (w : Serve.window_stat) ->
        w.Serve.ws_alert <> "" || w.Serve.ws_burn >= 1.0)
      r.Serve.r_windows
  in
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf "\"suite\":\"serve-flight-windows\",\"windows\":[%s]"
       (String.concat ","
          (List.map
             (fun (w : Serve.window_stat) ->
               Printf.sprintf
                 "{\"start_s\":%.2f,\"stop_s\":%.2f,\"total\":%d,\
                  \"errors\":%d,\"p99_us\":%d,\"burn\":%.4f,\"alert\":%S}"
                 w.Serve.ws_start_s w.Serve.ws_stop_s w.Serve.ws_total
                 w.Serve.ws_errors w.Serve.ws_p99_us w.Serve.ws_burn
                 w.Serve.ws_alert)
             offending)))

let faults_json (r : Serve.result) =
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf "\"suite\":\"serve-flight-faults\",\"fired\":[%s]"
       (String.concat ","
          (List.map
             (fun (site, cls, tick) ->
               Printf.sprintf "{\"site\":%S,\"class\":%S,\"tick\":%d}" site
                 cls tick)
             r.Serve.r_fired)))

let strikes_json (lo : Serve.lens_out) =
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf "\"suite\":\"serve-flight-strikes\",\"grafts\":[%s]"
       (String.concat ","
          (List.map
             (fun (name, state, strikes, faults, fallbacks) ->
               Printf.sprintf
                 "{\"graft\":%S,\"state\":%S,\"strikes\":%d,\"faults\":%d,\
                  \"fallbacks\":%d}"
                 name state strikes faults fallbacks)
             lo.Serve.lo_strikes)))

let manifest_json (r : Serve.result) (lo : Serve.lens_out) files =
  Graft_report.Envelope.wrap ~schema_version
    (Printf.sprintf
       "\"suite\":\"serve-flight\",\"seed\":%d,\"domains\":%d,\
        \"alerts_page\":%d,\"quarantined\":%d,\"threshold_us\":%d,\
        \"retained_ops\":%d,\"files\":[%s]"
       r.Serve.r_config.Serve.seed r.Serve.r_config.Serve.domains
       r.Serve.r_alerts_page r.Serve.r_quarantined lo.Serve.lo_threshold_us
       lo.Serve.lo_retained
       (String.concat ","
          (List.map (fun f -> "\"" ^ json_escape f ^ "\"") files)))

(** The post-mortem bundle as (filename, contents) pairs, manifest
    first. Empty when the run didn't enable the lens or didn't
    trigger (no page alert, nothing quarantined). *)
let bundle (r : Serve.result) =
  match r.Serve.r_lens with
  | None -> []
  | Some lo when not (triggered r) -> ignore lo; []
  | Some lo ->
      let body =
        [
          ("trace.json", chrome_trace lo);
          ("windows.json", windows_json r);
          ("faults.json", faults_json r);
          ("strikes.json", strikes_json lo);
        ]
      in
      ("manifest.json", manifest_json r lo (List.map fst body)) :: body

(** Write the bundle under [dir] (created if missing); returns the
    filenames written, [] when nothing triggered. *)
let write ~dir r =
  match bundle r with
  | [] -> []
  | files ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      List.map
        (fun (name, contents) ->
          let path = Filename.concat dir name in
          let oc = open_out path in
          output_string oc contents;
          output_string oc "\n";
          close_out oc;
          name)
        files

(* ------------------------------------------------------------------ *)
(* A14: the causal-tracing overhead ablation.                          *)
(* ------------------------------------------------------------------ *)

(** Ablation A14: serve wall-clock with Graftlens off vs on, as a
    round-paired delta judged against the tracing budget. Lives here
    rather than in [Graft_report.Experiments] because the serve
    harness depends on the report library (for the envelope); it is
    registered directly in graftkit's table list. *)
let ablation (scale : Graft_report.Experiments.scale) :
    Graft_report.Experiments.table =
  let module E = Graft_report.Experiments in
  let module H = Graft_stats.Harness in
  let reps = match scale with E.Quick -> 4 | E.Full -> 8 in
  (* Measure at full smoke size: the lens carries a small fixed cost
     (ring allocation at enable) that a shorter run would overstate
     relative to the steady-state per-op cost users actually pay. *)
  let base = Serve.smoke in
  let serve cfg = H.stage (fun () -> ignore (Serve.run cfg)) in
  (* One serve run per round, off and on interleaved, so drift
     (thermal, GC heap growth) pairs out of the delta; the harness
     warms both paths once before timing. *)
  let ms =
    H.interleaved
      ~config:(E.slow_config ~rounds:reps scale)
      [| serve base; serve { base with Serve.lens = true } |]
  in
  let delta = H.paired_delta_pct ms.(0).H.samples ms.(1).H.samples in
  let t =
    Graft_util.Tablefmt.create
      [|
        "Tracing"; "serve run"; "paired delta";
        Printf.sprintf "budget <=%.0f%% (95%% CI)" E.overhead_budget_pct;
      |]
  in
  Graft_util.Tablefmt.add_row t
    [| "off (default)"; E.fmt_meas ms.(0); "-"; "" |];
  Graft_util.Tablefmt.add_row t
    [|
      "Graftlens on";
      E.fmt_meas ms.(1);
      H.pp_delta delta;
      H.budget ~pct:E.overhead_budget_pct delta;
    |];
  {
    E.id = "Ablation A14";
    title = "Graftlens causal-tracing overhead on the serve path";
    body = Graft_util.Tablefmt.render t;
    notes =
      [
        Printf.sprintf
          "%d round-paired serve runs (%d tenants, %.0fs simulated) per \
           regime, in interleaved GC-fenced rounds"
          (Array.length ms.(0).H.samples)
          base.Serve.tenants base.Serve.duration_s;
        E.budget_note;
        "disabled-path identity is pinned separately: test_lens asserts \
         lens-off reports are byte-identical, and CI's serve gate compares \
         against the committed baseline";
      ];
  }
