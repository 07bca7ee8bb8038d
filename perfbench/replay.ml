(* Serve's op loop, replayed from outside the library.

   [shard] makes the public calls [Graft_slo.Serve.run_shard] makes, in
   the same order and with the same arguments, so it does the same work
   and reaches the same ops, good, errors and fired fault arms. What it
   adds is measurement: with a span recorder it wraps every call in a
   span (the traced run); without one it only times each
   [Manager.invoke] (the per-op latency the timed runs report). *)

open Graft_core
module Serve = Graft_slo.Serve
module Window = Graft_slo.Window
module Mttr = Graft_slo.Mttr
module Fi = Graft_faultinject.Faultinject

type out = {
  ops : int;
  good : int;
  errors : int;
  fired : (string * string * int) list;  (** site, class, tick; sorted *)
  lat_ns : int array;  (** wall time of each op's [Manager.invoke] *)
  prof : Prof.t option;
  tenants : Serve.tenant array;
  wall_ns : int;  (** the shard, set-up included *)
  setup_words : float;  (** minor words of the [Serve.make_tenant] calls *)
  promoted_words : float;
  events : int;
  records : int;  (** window records, good and error *)
  checks : int;  (** fault-plan checks *)
  map_lookups : int;
  map_updates : int;
  map_evictions : int;
  trace_recorded : int;
  trace_dropped : int;
}

let class_index = function
  | Serve.Op_demux _ -> Prof.demux
  | Serve.Op_hotset _ -> Prof.hotset
  | Serve.Op_stream _ -> Prof.stream
  | Serve.Op_evict _ -> Prof.evict

(* Open [layer] around [f], closing it on the way out even when [f]
   raises: faults are raised inside [Manager.invoke]'s barrier. *)
let guarded p layer f =
  Prof.enter p layer;
  match f () with
  | r ->
      Prof.leave p;
      r
  | exception e ->
      Prof.leave p;
      raise e

let promoted () =
  let _, p, _ = Gc.counters () in
  p

(* Shard [k]'s slice of [cfg], as [Serve.run_shard cfg ~specs ~storms k]
   runs it. When tracing, the op loop is marked on the GC event ring and
   [poll] drains that ring between ops. *)
let shard ?prof ?(poll = fun () -> ()) cfg ~specs ~storms k =
  let span l f = Prof.span prof l f in
  let wall0 = Prof.now_ns () in
  let lk0 = Prof.map_ops "lookup"
  and up0 = Prof.map_ops "update"
  and ev0 = Prof.map_ops "evict" in
  Graft_trace.Trace.enable ~capacity:4096 ();
  let mgr = Manager.create () in
  let w0 = Gc.minor_words () in
  let tenants =
    Array.of_list
      (List.filter_map
         (fun i ->
           if i mod cfg.Serve.domains = k then
             let tier =
               Prof.tier_index
                 Serve.tech_rotation.(i mod Array.length Serve.tech_rotation)
             in
             Some (span (Prof.load tier) (fun () -> Serve.make_tenant mgr cfg i))
           else None)
         (List.init cfg.Serve.tenants (fun i -> i)))
  in
  let setup_words = Gc.minor_words () -. w0 in
  let tier_of =
    Array.map (fun t -> Prof.tier_index t.Serve.t_tech) tenants
  in
  let events, plan =
    span Prof.gen (fun () ->
        let events =
          Serve.sort_events
            (Array.of_list
               (List.concat_map (Serve.tenant_events cfg) (Array.to_list tenants)))
        in
        let my_sites = Hashtbl.create 32 in
        Array.iter
          (fun t ->
            List.iter
              (fun g -> Hashtbl.replace my_sites g.Manager.g_name ())
              [ t.Serve.demux_g; t.hotset_g; t.stream_g; t.evict_g ])
          tenants;
        let plan =
          Fi.make (List.filter (fun (site, _, _) -> Hashtbl.mem my_sites site) specs)
        in
        (events, plan))
  in
  let by_idx = Hashtbl.create 16 in
  Array.iteri (fun j t -> Hashtbl.replace by_idx t.Serve.t_idx j) tenants;
  let global = Window.recorder ~subbits:cfg.subbits ~width_s:cfg.window_s () in
  let all_lat = Graft_trace.Histo.create ~subbits:cfg.subbits () in
  let trackers : (string, Mttr.t) Hashtbl.t = Hashtbl.create 64 in
  let tracker g =
    match Hashtbl.find_opt trackers g.Manager.g_name with
    | Some m -> m
    | None ->
        let m = Mttr.create () in
        Hashtbl.add trackers g.Manager.g_name m;
        m
  in
  let dlabel = if cfg.domains = 1 then [] else [ ("domain", string_of_int k) ] in
  let ops = ref 0 and good = ref 0 and errors = ref 0 in
  let records = ref 0 and checks = ref 0 in
  let lat_ns = Array.make (Array.length events) 0 in
  let take_snapshot () =
    span Prof.account (fun () ->
        Manager.publish_state_gauges mgr;
        Graft_metrics.publish_trace_gauges ~labels:dlabel ();
        ignore (Serve.count_states tenants);
        ignore (Graft_trace.Trace.dropped ());
        ignore (Graft_trace.Histo.copy all_lat))
  in
  let next_snapshot = ref cfg.snapshot_every_s in
  let pw0 = promoted () in
  if prof <> None then Gcwatch.loop_start ();
  Array.iteri
    (fun n ev ->
      if prof <> None && n land 2047 = 0 then poll ();
      while ev.Serve.ev_t >= !next_snapshot do
        take_snapshot ();
        next_snapshot := !next_snapshot +. cfg.snapshot_every_s
      done;
      let j = Hashtbl.find by_idx ev.Serve.ev_tenant in
      let t = tenants.(j) in
      let tier = tier_of.(j) in
      let cls = class_index ev.ev_spec in
      let g, thunk, svc =
        span Prof.gen (fun () ->
            let in_storm = Graft_workload.Arrival.in_intervals ev.ev_t storms in
            match ev.ev_spec with
            | Serve.Op_demux k ->
                let pkt = t.packets.(k) in
                let batch = if in_storm then Serve.storm_batch else 1 in
                let per =
                  Serve.base_us Serve.Demux ~size:(Graft_kernel.Netpkt.length pkt)
                in
                ( t.demux_g,
                  (fun () ->
                    for _ = 2 to batch do
                      ignore (t.demux_r.Runners.demux pkt)
                    done;
                    t.demux_r.Runners.demux pkt),
                  float_of_int batch *. per )
            | Serve.Op_hotset (l3, child) ->
                let path =
                  Graft_workload.Tpcb.lookup_path t.btree ~l3_index:l3
                    ~child_index:child
                in
                ( t.hotset_g,
                  (fun () ->
                    Array.fold_left
                      (fun _ page -> t.hotset_r.Runners.touch page)
                      0 path),
                  Serve.base_us Serve.Hotset ~size:0 )
            | Serve.Op_stream k ->
                let chunk = t.chunks.(k) in
                ( t.stream_g,
                  (fun () ->
                    t.stream_r.Runners.load chunk;
                    t.stream_r.Runners.compute (Bytes.length chunk);
                    0),
                  Serve.base_us Serve.Stream ~size:Serve.stream_chunk )
            | Serve.Op_evict page ->
                t.evict_ops <- t.evict_ops + 1;
                if t.evict_ops mod Serve.evict_refresh_every = 1 then begin
                  let hot =
                    Array.init Serve.hot_pages_per_refresh (fun _ ->
                        Graft_util.Prng.int t.refresh_rng
                          t.btree.Graft_workload.Tpcb.npages)
                  in
                  span Prof.refresh (fun () ->
                      t.evict_r.Runners.refresh ~hot ~lru:[||])
                end;
                ( t.evict_g,
                  (fun () -> if t.evict_r.Runners.contains page then 1 else 0),
                  Serve.base_us Serve.Evict ~size:0 ))
      in
      span Prof.account (fun () ->
          Graft_kernel.Simclock.advance_to t.t_clock ev.ev_t);
      let tf_before = g.Manager.total_faults in
      let result =
        match prof with
        | None ->
            let t0 = Prof.now_ns () in
            let r =
              Manager.invoke g (fun () ->
                  Fi.check plan g.Manager.g_name;
                  thunk ())
            in
            lat_ns.(n) <- Prof.now_ns () - t0;
            r
        | Some p ->
            guarded p Prof.invoke (fun () ->
                Manager.invoke g (fun () ->
                    incr checks;
                    guarded p Prof.check (fun () -> Fi.check plan g.Manager.g_name);
                    let f0 = Prof.fuel_now () in
                    let r = guarded p (Prof.exec ~tier ~cls) thunk in
                    p.Prof.fuel.(tier) <- p.Prof.fuel.(tier) + Prof.fuel_now () - f0;
                    r))
      in
      span Prof.account (fun () ->
          let faulted = g.Manager.total_faults > tf_before in
          let quarantined =
            match g.Manager.state with Manager.Quarantined _ -> true | _ -> false
          in
          let outcome =
            if faulted then Mttr.Faulted
            else
              match result with Some _ -> Mttr.Graft_ok | None -> Mttr.Fallback_ok
          in
          Mttr.observe (tracker g) ~now:ev.ev_t ~quarantined outcome;
          let jitter = Graft_workload.Arrival.lognormal t.t_svc ~sigma:0.3 in
          let svc_us =
            (match outcome with
            | Mttr.Graft_ok -> svc *. Serve.tech_mult t.t_tech
            | Mttr.Fallback_ok -> Serve.fallback_us
            | Mttr.Faulted ->
                (svc *. Serve.tech_mult t.t_tech /. 2.0) +. Serve.fault_penalty_us)
            *. jitter
          in
          Graft_kernel.Simclock.charge t.t_clock
            (Serve.class_name_of_spec ev.ev_spec)
            (svc_us *. 1e-6);
          let latency_us =
            int_of_float
              (Float.round
                 ((Graft_kernel.Simclock.now t.t_clock -. ev.ev_t) *. 1e6))
          in
          incr ops;
          records := !records + 2;
          t.demand <- t.demand + 1;
          if outcome = Mttr.Faulted then begin
            incr errors;
            t.errors <- t.errors + 1;
            Window.record_error t.recorder ~t:ev.ev_t;
            Window.record_error global ~t:ev.ev_t
          end
          else begin
            incr good;
            t.good <- t.good + 1;
            Graft_trace.Histo.add all_lat latency_us;
            Window.record t.recorder ~t:ev.ev_t ~latency_us;
            Window.record global ~t:ev.ev_t ~latency_us
          end))
    events;
  while !next_snapshot < cfg.duration_s do
    take_snapshot ();
    next_snapshot := !next_snapshot +. cfg.snapshot_every_s
  done;
  take_snapshot ();
  let loop1 = Prof.now_ns () in
  let promoted_words = promoted () -. pw0 in
  if prof <> None then Gcwatch.loop_stop ();
  {
    ops = !ops;
    good = !good;
    errors = !errors;
    fired =
      List.sort compare
        (List.map (fun (site, cls, tick) -> (site, Fi.class_name cls, tick)) (Fi.fired plan));
    lat_ns;
    prof;
    tenants;
    wall_ns = loop1 - wall0;
    setup_words;
    promoted_words;
    events = Array.length events;
    records = !records;
    checks = !checks;
    map_lookups = Prof.map_ops "lookup" - lk0;
    map_updates = Prof.map_ops "update" - up0;
    map_evictions = Prof.map_ops "evict" - ev0;
    trace_recorded = Graft_trace.Trace.total_recorded ();
    trace_dropped = Graft_trace.Trace.dropped ();
  }

(* The prologue [Serve.run] runs before fanning out. *)
let prologue cfg =
  Graft_metrics.enable ();
  Graft_metrics.reset_shards ();
  let specs = Serve.fault_arm_specs cfg in
  let storms =
    Graft_workload.Arrival.bursts
      (Graft_util.Prng.create (Serve.storm_seed cfg))
      ~until:cfg.Serve.duration_s ~on_mean:0.6 ~off_mean:9.0
  in
  (specs, storms)

(* All shards of [cfg]: inline at one domain, else one worker domain
   each, as [Serve.run] fans out. When traced, the calling domain
   drains the GC ring of [gc] until every worker has finished. *)
let run ?(traced = false) ?gc cfg =
  let specs, storms = prologue cfg in
  let poll () = Option.iter Gcwatch.poll gc in
  let go k =
    let prof = if traced then Some (Prof.create ()) else None in
    shard ?prof ~poll cfg ~specs ~storms k
  in
  if cfg.Serve.domains = 1 then [| go 0 |]
  else begin
    let finished = Atomic.make 0 in
    let workers =
      Array.init cfg.domains (fun k ->
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.incr finished)
                (fun () -> go k)))
    in
    if traced then
      while Atomic.get finished < cfg.domains do
        poll ();
        Unix.sleepf 0.002
      done;
    Array.map Domain.join workers
  end
