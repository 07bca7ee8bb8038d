(* graftkit's benchmark.

     bench.exe --workload serve-2dom|hooks --seed N --seconds S --trace 0|1

   With --trace 0 it times the workload and prints the end-to-end
   metrics; with --trace 1 it makes one traced run and prints the
   per-layer metrics. Either way it checks the program's outputs, and
   the last line of stdout is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.

     bench.exe --selftest BENCHMARK.json

   runs every workload at a tiny size, in both modes, and checks that
   the metrics printed are exactly the ones BENCHMARK.json names, with
   the same units. README.md says what each workload and metric is. *)

open Graft_core
module Serve = Graft_slo.Serve
module Minijson = Graft_util.Minijson

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank n p = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Nearest-rank percentile of the first [n] samples of [a]. *)
let percentile_ns a n p =
  let s = Array.sub a 0 n in
  Array.sort compare s;
  s.(rank n p)

let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(rank (Array.length a) p)

let secs = Prof.secs

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Workloads and sizes.                                                *)
(* ------------------------------------------------------------------ *)

let workloads = [ "serve-2dom"; "hooks" ]

type size = {
  serve_base : Serve.config;
  hook_inputs : int;  (** inputs per hooks round (6 calls each) *)
  traced_rounds : int;  (** hooks rounds per traced rep *)
}

let full =
  { serve_base = Serve.default; hook_inputs = 8192; traced_rounds = 2 }

(* The self-test size: seconds, not minutes, for the whole matrix. *)
let tiny =
  {
    serve_base = { Serve.smoke with Serve.duration_s = 2.0 };
    hook_inputs = 64;
    traced_rounds = 1;
  }

let serve_cfg size seed = { size.serve_base with Serve.seed; domains = 2 }

(* Wall time of one set-up: [f] builds every tenant's grafts, maps and
   input pools. Runs time one set-up per rep, so that the median covers
   the whole run and not one stretch of it. *)
let time_setup f =
  let t0 = Prof.now_ns () in
  ignore (f ());
  secs (Prof.now_ns () - t0)

let serve_setup cfg () =
  let mgr = Manager.create () in
  for i = 0 to cfg.Serve.tenants - 1 do
    ignore (Serve.make_tenant mgr cfg i)
  done

let deadline seconds = Prof.now_ns () + int_of_float (seconds *. 1e9)

(* Repeat [f] until [stop] has passed, at least once. *)
let until stop f =
  let rec go acc =
    let acc = f () :: acc in
    if Prof.now_ns () >= stop then List.rev acc else go acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Output checks for serve-2dom.                                       *)
(* ------------------------------------------------------------------ *)

(* The report minus what legitimately differs across domain counts:
   the "domains" field and per-domain trace-ring drop counts. *)
let rec strip = function
  | Minijson.Obj kvs ->
      Minijson.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "domains" || k = "trace_dropped" then None else Some (k, strip v))
           kvs)
  | Minijson.List xs -> Minijson.List (List.map strip xs)
  | v -> v

let stripped r =
  match Minijson.parse (Serve.to_json r) with
  | Ok doc -> Some (strip doc)
  | Error _ -> None

(* The replay did the same work as the report it mirrors. *)
let same_work (r : Serve.result) (outs : Replay.out array) =
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  sum (fun o -> o.Replay.ops) = r.r_ops
  && sum (fun o -> o.Replay.good) = r.r_good
  && sum (fun o -> o.Replay.errors) = r.r_errors
  && List.sort compare (List.concat_map (fun o -> o.Replay.fired) (Array.to_list outs))
     = r.r_fired

(* ------------------------------------------------------------------ *)
(* Timed runs (--trace 0).                                             *)
(* ------------------------------------------------------------------ *)

(* One timed rep. On a shared host the speed of a rep moves by 30% and
   more between a slow and a fast level, in stretches of seconds to
   minutes; the slow level is the steadier one, and nearly every run
   spends stretches in it. A median over reps follows the share of a
   run spent at each level, which changes from run to run. So each
   timing figure of a run is taken at the slow end of its reps: the
   [slow_end] quantile of per-rep times (the [1 - slow_end] quantile of
   rates). That is a fixed share of the reps, not a best or worst rep,
   so it does not follow the rep count. [setup_s] is the median of the
   run's set-ups. *)
let slow_end = 0.8

type timed_rep = {
  rate : float;  (** ops per wall-second *)
  p50_us : float;
  p99_us : float;
  setup : float;
}

let timed_metrics reps ~good_frac ~peak =
  let at q f = quantile (List.map f reps) q in
  [
    ("ops_per_s", at (1.0 -. slow_end) (fun r -> r.rate), "1/s");
    ("setup_s", median (List.map (fun r -> r.setup) reps), "s");
    ("op_p50_us", at slow_end (fun r -> r.p50_us), "us");
    ("op_p99_us", at slow_end (fun r -> r.p99_us), "us");
    ("good_frac", good_frac, "ratio");
    ("peak_rss_mb", peak, "MB");
  ]

let percentiles_us lat n =
  (float_of_int (percentile_ns lat n 0.50) /. 1e3, float_of_int (percentile_ns lat n 0.99) /. 1e3)

let timed_serve size ~seed ~seconds =
  let cfg = serve_cfg size seed in
  (* The reference report; also the warm-up, and the fixed work the
     peak RSS covers. It must equal the 1-domain report once the
     per-domain fields are gone. *)
  let reference = Serve.run cfg in
  let peak = peak_rss_mb () in
  let digest = Digest.string (Serve.to_json reference) in
  let ref_ok =
    let one = Serve.run { cfg with domains = 1 } in
    let s = stripped reference in
    s <> None && s = stripped one
  in
  let stop = deadline seconds in
  let repeats = ref 0 and replays_ok = ref 0 in
  (* Each rep times one Serve.run, then replays its loop to time each
     op's invoke, then times one set-up. The replay runs at 1 domain:
     per-op latency of the same traffic, without the other domain's
     interference, which on a shared 2-core host is mostly other
     tenants' load. *)
  let reps =
    until stop (fun () ->
        let t0 = Prof.now_ns () in
        let r = Serve.run cfg in
        let dt = secs (Prof.now_ns () - t0) in
        if Digest.string (Serve.to_json r) = digest then incr repeats;
        let outs = Replay.run { cfg with domains = 1 } in
        if same_work reference outs then incr replays_ok;
        let lat = Array.concat (Array.to_list (Array.map (fun o -> o.Replay.lat_ns) outs)) in
        let p50_us, p99_us = percentiles_us lat (Array.length lat) in
        { rate = float_of_int r.r_ops /. dt; p50_us; p99_us; setup = time_setup (serve_setup cfg) })
  in
  let nreps = List.length reps in
  (* A rep whose report or replay differs counts its ops as failed. *)
  let attempted = 2 * nreps * reference.r_ops in
  let failed = ((nreps - !repeats) + (nreps - !replays_ok)) * reference.r_ops in
  let injected = float_of_int reference.r_errors /. float_of_int reference.r_ops in
  {
    correct = ref_ok && failed = 0;
    attempted;
    failed;
    metrics =
      timed_metrics reps
        ~good_frac:(float_of_int reference.r_good /. float_of_int reference.r_ops)
        ~peak;
    notes =
      [
        Printf.sprintf "%d reps: a Serve.run, a latency replay (%d op samples) and a set-up each"
          nreps reference.r_ops;
        "ops_per_s by rep: "
        ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" r.rate) reps);
        "op_p50_us by rep: "
        ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" r.p50_us) reps);
        Printf.sprintf "failed_frac %.6f ratio (injected faults %d of %d ops)"
          injected reference.r_errors reference.r_ops;
        Printf.sprintf "output checks: digest repeat %d/%d, 1-domain equality %b, replay %d/%d"
          !repeats nreps ref_ok !replays_ok nreps;
      ];
  }

let timed_hooks size ~seed ~seconds =
  Graft_metrics.enable ();
  Graft_trace.Trace.enable ~capacity:4096 ();
  let h = Hooks.create seed in
  let st = Hooks.stats () in
  let lat = Array.make (Hooks.ntiers * size.hook_inputs) 0 in
  (* Warm-up round, checked but not timed; the peak RSS covers it. *)
  ignore (Hooks.run_round h (Hooks.gen h size.hook_inputs) st lat);
  let peak = peak_rss_mb () in
  let stop = deadline seconds in
  let reps =
    until stop (fun () ->
        let r = Hooks.gen h size.hook_inputs in
        let t0 = Prof.now_ns () in
        let n = Hooks.run_round h r st lat in
        let dt = secs (Prof.now_ns () - t0) in
        let p50_us, p99_us = percentiles_us lat n in
        {
          rate = float_of_int n /. dt;
          p50_us;
          p99_us;
          setup = time_setup (fun () -> Hooks.make_tenants seed);
        })
  in
  {
    correct = st.failed = 0;
    attempted = st.calls;
    failed = st.failed;
    metrics = timed_metrics reps ~good_frac:(float_of_int st.good /. float_of_int st.calls) ~peak;
    notes =
      [
        Printf.sprintf "%d rounds of %d calls (op latency samples per round), a set-up each"
          (List.length reps) (Hooks.ntiers * size.hook_inputs);
        Printf.sprintf "failed_frac %.6f ratio (%d of %d calls)"
          (float_of_int st.failed /. float_of_int st.calls)
          st.failed st.calls;
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run (--trace 1).                                         *)
(* ------------------------------------------------------------------ *)

let gcwatch = lazy (Gcwatch.start ())

(* What one traced rep measured, summed over its domains. *)
type rep = {
  prof : Prof.t;
  ops : int;
  wall_ns : int;  (** summed over domains *)
  setup_words : float;
  promoted : float;
  loads : int;
  events : int;
  records : int;
  checks : int;
  map_lookups : int;
  map_updates : int;
  map_evictions : int;
  trace_recorded : int;
  trace_dropped : int;
  invocations : int;
  fallbacks : int;
  faults : int;
  quarantines : int;
  par_s : float;
  merge_s : float;
  imbalance : float;
  majors : int;
  gc : Gcwatch.summary;
}

let graft_counts grafts =
  List.fold_left
    (fun (i, fb, f, q) g ->
      ( i + g.Manager.invocations,
        fb + g.Manager.fallbacks,
        f + g.Manager.total_faults,
        q + match g.Manager.state with Manager.Quarantined _ -> 1 | _ -> 0 ))
    (0, 0, 0, 0) grafts

let tenant_grafts tenants =
  List.concat_map
    (fun t -> [ t.Serve.demux_g; t.Serve.hotset_g; t.Serve.stream_g; t.Serve.evict_g ])
    (Array.to_list tenants)

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* One traced serve rep, checked against an untraced [Serve.run]. *)
let traced_serve_rep cfg =
  let gc = Lazy.force gcwatch in
  let r = Serve.run cfg in
  Gcwatch.reset gc;
  let m0 = majors () in
  let outs = Replay.run ~traced:true ~gc cfg in
  let majors = majors () - m0 in
  let ok = same_work r outs in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let sumf f = Array.fold_left (fun acc o -> acc +. f o) 0.0 outs in
  let inv, fb, f, q =
    graft_counts (List.concat_map (fun o -> tenant_grafts o.Replay.tenants) (Array.to_list outs))
  in
  (* Shard demand from the report: tenant i ran on shard i mod N. *)
  let demand = Array.make cfg.domains 0 in
  List.iteri
    (fun i ts -> demand.(i mod cfg.domains) <- demand.(i mod cfg.domains) + ts.Serve.ts_demand)
    r.r_tenants;
  let mean = float_of_int (Array.fold_left ( + ) 0 demand) /. float_of_int cfg.domains in
  ( ok,
    {
      prof = Prof.merge (List.filter_map (fun o -> o.Replay.prof) (Array.to_list outs));
      ops = sum (fun o -> o.Replay.ops);
      wall_ns = sum (fun o -> o.Replay.wall_ns);
      setup_words = sumf (fun o -> o.Replay.setup_words);
      promoted = sumf (fun o -> o.Replay.promoted_words);
      loads = 4 * cfg.tenants;
      events = sum (fun o -> o.Replay.events);
      records = sum (fun o -> o.Replay.records);
      checks = sum (fun o -> o.Replay.checks);
      map_lookups = sum (fun o -> o.Replay.map_lookups);
      map_updates = sum (fun o -> o.Replay.map_updates);
      map_evictions = sum (fun o -> o.Replay.map_evictions);
      trace_recorded = sum (fun o -> o.Replay.trace_recorded);
      trace_dropped = sum (fun o -> o.Replay.trace_dropped);
      invocations = inv;
      fallbacks = fb;
      faults = f;
      quarantines = q;
      par_s = r.r_par_wall_s;
      merge_s = r.r_wall_s -. r.r_par_wall_s;
      imbalance = float_of_int (Array.fold_left max 0 demand) /. mean;
      majors;
      gc = Gcwatch.summary gc;
    } )

(* One traced hooks rep: [rounds] rounds untraced, then the same
   rounds traced on fresh instances; both must answer identically. *)
let traced_hooks_rep size seed =
  let gc = Lazy.force gcwatch in
  Graft_metrics.enable ();
  Graft_trace.Trace.enable ~capacity:4096 ();
  let lat = Array.make (Hooks.ntiers * size.hook_inputs) 0 in
  let plain =
    let h = Hooks.create seed in
    let st = Hooks.stats () in
    for _ = 1 to size.traced_rounds do
      ignore (Hooks.run_round h (Hooks.gen h size.hook_inputs) st lat)
    done;
    st
  in
  Gcwatch.reset gc;
  Graft_trace.Trace.enable ~capacity:4096 ();
  let p = Prof.create () in
  let lk0 = Prof.map_ops "lookup" and up0 = Prof.map_ops "update" and ev0 = Prof.map_ops "evict" in
  let wall0 = Prof.now_ns () in
  let w0 = Gc.minor_words () in
  let h = Hooks.create ~prof:p seed in
  let setup_words = Gc.minor_words () -. w0 in
  let st = Hooks.stats () in
  let m0 = majors () in
  let pw0 = Replay.promoted () in
  Gcwatch.loop_start ();
  for _ = 1 to size.traced_rounds do
    let r = Prof.span (Some p) Prof.gen (fun () -> Hooks.gen h size.hook_inputs) in
    ignore (Hooks.run_round ~prof:p h r st lat);
    Gcwatch.poll gc
  done;
  let wall1 = Prof.now_ns () in
  Gcwatch.loop_stop ();
  let promoted = Replay.promoted () -. pw0 in
  let majors = majors () - m0 in
  let ok =
    st.calls = plain.calls && st.good = plain.good && st.failed = plain.failed
    && st.digest = plain.digest && st.failed = 0
  in
  let inv, fb, f, q = graft_counts (tenant_grafts h.tenants) in
  ( ok,
    {
      prof = p;
      ops = st.calls;
      wall_ns = wall1 - wall0;
      setup_words;
      promoted;
      loads = 4 * Hooks.ntiers;
      events = st.calls / Hooks.ntiers;
      records = 0;
      checks = st.calls;
      map_lookups = Prof.map_ops "lookup" - lk0;
      map_updates = Prof.map_ops "update" - up0;
      map_evictions = Prof.map_ops "evict" - ev0;
      trace_recorded = Graft_trace.Trace.total_recorded ();
      trace_dropped = Graft_trace.Trace.dropped ();
      invocations = inv;
      fallbacks = fb;
      faults = f;
      quarantines = q;
      (* hooks has no shards and no SLO accounting. *)
      par_s = 0.0;
      merge_s = 0.0;
      imbalance = 1.0;
      majors;
      gc = Gcwatch.summary gc;
    } )

(* Per-layer metrics, averaged over the traced reps. *)
let layer_metrics reps =
  let n = float_of_int (List.length reps) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 reps /. n in
  let avgi f = avg (fun r -> float_of_int (f r)) in
  let layers ls = avg (fun r -> Prof.secs (Prof.sum_layers r.prof ls)) in
  let calls ls = avg (fun r -> float_of_int (List.fold_left (fun a l -> a + r.prof.Prof.calls.(l)) 0 ls)) in
  let words ls = avg (fun r -> List.fold_left (fun a l -> a +. r.prof.Prof.self_words.(l)) 0.0 ls) in
  let per_tier name unit f =
    List.init Prof.ntiers (fun t -> (Printf.sprintf "exec.%s.%s" Prof.tiers.(t) name, f t, unit))
  in
  let loads = List.init Prof.ntiers Prof.load in
  let op_layers = List.filter (fun l -> not (List.mem l loads)) Prof.all_layers in
  let ops = avgi (fun r -> r.ops) in
  [ ("runners.load_s", layers loads, "s") ]
  @ List.init Prof.ntiers (fun t ->
        (Printf.sprintf "runners.load_s.%s" Prof.tiers.(t), layers [ Prof.load t ], "s"))
  @ [
      ("runners.loads", avgi (fun r -> r.loads), "count");
      ("gc.setup_minor_words", avg (fun r -> r.setup_words), "words");
    ]
  @ per_tier "s" "s" (fun t -> layers (Prof.tier_exec t))
  @ per_tier "calls" "count" (fun t -> calls (Prof.tier_exec t))
  @ per_tier "fuel" "count" (fun t -> avg (fun r -> float_of_int r.prof.Prof.fuel.(t)))
  @ List.map
      (fun cls -> (Printf.sprintf "exec.%s.s" Prof.classes.(cls), layers (Prof.class_exec cls), "s"))
      [ Prof.demux; Prof.hotset; Prof.evict ]
  @ [
      ("manager.invoke_self_s", layers [ Prof.invoke ], "s");
      ("manager.invocations", avgi (fun r -> r.invocations), "count");
      ("manager.fallbacks", avgi (fun r -> r.fallbacks), "count");
      ("manager.faults", avgi (fun r -> r.faults), "count");
      ("manager.quarantines", avgi (fun r -> r.quarantines), "count");
      ( "manager.fallback_frac",
        avg (fun r -> float_of_int r.fallbacks /. float_of_int (max 1 r.ops)),
        "ratio" );
      ("faultinject.check_s", layers [ Prof.check ], "s");
      ("faultinject.checks", avgi (fun r -> r.checks), "count");
      ("graftmap.lookups", avgi (fun r -> r.map_lookups), "count");
      ("graftmap.updates", avgi (fun r -> r.map_updates), "count");
      ("graftmap.evictions", avgi (fun r -> r.map_evictions), "count");
      ("workload.gen_s", layers [ Prof.gen ], "s");
      ("workload.events", avgi (fun r -> r.events), "count");
      ("slo.account_s", layers [ Prof.account ], "s");
      ("slo.records", avgi (fun r -> r.records), "count");
      ("trace.recorded_events", avgi (fun r -> r.trace_recorded), "count");
      ("trace.dropped_events", avgi (fun r -> r.trace_dropped), "count");
      ( "trace.self_sum_frac",
        avg (fun r ->
            float_of_int (Prof.sum_layers r.prof Prof.all_layers) /. float_of_int r.wall_ns),
        "ratio" );
      ("swarm.par_s", avg (fun r -> r.par_s), "s");
      ("swarm.merge_s", avg (fun r -> r.merge_s), "s");
      ("swarm.shard_imbalance", avg (fun r -> r.imbalance), "ratio");
      ("gc.minor_words_per_op", words op_layers /. ops, "words");
      ("gc.promoted_words_per_op", avg (fun r -> r.promoted) /. ops, "words");
      ("gc.minor_collections", avgi (fun r -> r.gc.Gcwatch.minor_collections), "count");
      ("gc.major_collections", avgi (fun r -> r.majors), "count");
      ("gc.pause_s", avg (fun r -> secs r.gc.Gcwatch.pause_ns), "s");
      ( "gc.pause_max_us",
        List.fold_left (fun acc r -> max acc (float_of_int r.gc.Gcwatch.pause_max_ns /. 1e3)) 0.0 reps,
        "us" );
    ]

(* Layer detail that is not a gated metric: time per tier x class,
   the stream class, refreshes, and per-domain GC. *)
let layer_notes reps =
  let r = List.hd reps in
  let p = r.prof in
  let cell t c = Prof.exec ~tier:t ~cls:c in
  let header =
    Printf.sprintf "%-18s %12s %12s %12s %12s" "exec self s" "demux" "hotset" "stream" "evict"
  in
  header
  :: List.init Prof.ntiers (fun t ->
         Printf.sprintf "%-18s %12.6f %12.6f %12.6f %12.6f" Prof.tiers.(t)
           (Prof.secs p.Prof.self_ns.(cell t 0))
           (Prof.secs p.Prof.self_ns.(cell t 1))
           (Prof.secs p.Prof.self_ns.(cell t 2))
           (Prof.secs p.Prof.self_ns.(cell t 3)))
  @ [
      Printf.sprintf "exec.stream.s %.6f s" (Prof.secs (Prof.sum_layers p (Prof.class_exec Prof.stream)));
      Printf.sprintf "runners.refresh_s %.6f s" (Prof.secs p.Prof.self_ns.(Prof.refresh));
      Printf.sprintf "traced wall %.6f s, spanned %.6f s (first rep)" (secs r.wall_ns)
        (Prof.secs (Prof.sum_layers p Prof.all_layers));
      Printf.sprintf "gc events lost: %d" r.gc.Gcwatch.lost;
    ]
  @ List.map
      (fun (d, m, ns) -> Printf.sprintf "gc domain %d: %d minor collections, %.6f s paused" d m (secs ns))
      r.gc.Gcwatch.per_domain

let traced size workload ~seed ~seconds =
  let stop = deadline seconds in
  let results =
    if workload = "hooks" then until stop (fun () -> traced_hooks_rep size seed)
    else
      let cfg = serve_cfg size seed in
      until stop (fun () -> traced_serve_rep cfg)
  in
  let reps = List.map snd results in
  let metrics = layer_metrics reps in
  let self_sum = List.assoc "trace.self_sum_frac" (List.map (fun (n, v, _) -> (n, v)) metrics) in
  let same = List.for_all fst results in
  let attempted = List.fold_left (fun acc r -> acc + r.ops) 0 reps in
  {
    correct = same;
    attempted;
    failed = (if same then 0 else attempted);
    metrics;
    notes =
      (* What the spans miss of the traced run's wall time is loop glue,
         the benchmark's own bookkeeping and the recorder itself. *)
      Printf.sprintf "%d traced reps; same work as untraced: %b; spans cover %.1f%% of wall%s"
        (List.length reps) same (100.0 *. self_sum)
        (if self_sum > 0.8 && self_sum <= 1.0 then "" else " (expected 80-100%)")
      :: layer_notes reps;
  }

let measure size workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then invalid_arg ("unknown workload " ^ workload);
  if trace then traced size workload ~seed ~seconds
  else if workload = "hooks" then timed_hooks size ~seed ~seconds
  else timed_serve size ~seed ~seconds

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json o =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" o.correct
    o.attempted o.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
          o.metrics))

let print o =
  List.iter print_endline o.notes;
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %s %s\n" name (json_number v) unit) o.metrics;
  print_endline (to_json o)

(* ------------------------------------------------------------------ *)
(* Self-test: every workload, both modes, at the tiny size.            *)
(* ------------------------------------------------------------------ *)

let declared doc key =
  match Option.bind (Minijson.member key doc) Minijson.to_list with
  | None -> failwith ("BENCHMARK.json: no list " ^ key)
  | Some xs ->
      List.map
        (fun m ->
          let field f =
            match Option.bind (Minijson.member f m) Minijson.to_string with
            | Some s -> s
            | None -> failwith ("BENCHMARK.json: " ^ key ^ " entry without " ^ f)
          in
          (field "name", if key = "workloads" then "" else field "unit"))
        xs

let selftest path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc =
    match Minijson.parse text with Ok d -> d | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let named = List.map fst (declared doc "workloads") in
  let bad = ref [] in
  if List.sort compare named <> List.sort compare workloads then
    bad := "workload list differs from BENCHMARK.json" :: !bad;
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          let o = measure tiny workload ~seed:7 ~seconds:0.0 ~trace in
          let got = List.sort compare (List.map (fun (n, _, u) -> (n, u)) o.metrics) in
          let want = List.sort compare (declared doc key) in
          let tag = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
          if got <> want then bad := (tag ^ ": metrics differ from " ^ key) :: !bad;
          if not o.correct then
            bad := String.concat "\n  " ((tag ^ ": output check failed") :: o.notes) :: !bad;
          if List.exists (fun (_, v, _) -> not (Float.is_finite v)) o.metrics then
            bad := (tag ^ ": non-finite metric") :: !bad)
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  match !bad with
  | [] -> ()
  | errs ->
      List.iter prerr_endline (List.rev errs);
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-2dom or hooks");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--selftest", Arg.Set_string self, "FILE tiny run of every workload against FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self <> "" then selftest !self
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end
  else print (measure full !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
