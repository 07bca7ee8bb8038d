(** Graftswarm's scaling harness: ops/s of the sharded serve section
    versus worker-domain count, with {!Graft_stats.Robust} medians and
    bootstrap CIs over repeated runs.

    Unlike every other number serve emits, throughput is {e wall-clock}
    — it measures how fast this machine chews through the simulated
    workload, specifically the parallel section alone (domain spawn to
    join), so setup and merge cost do not dilute the scaling signal.
    The simulated results themselves are independent of the domain
    count (that is Graftswarm's merge-equivalence guarantee, pinned by
    test_swarm), so every row of this table recomputes the {e same}
    report; only the wall-clock differs.

    Scaling is bounded by the cores actually available: the artifact
    records [Domain.recommended_domain_count ()] so a reader (or the
    CI gate) can tell a scheduler problem from a one-core container. *)

type row = {
  tp_domains : int;
  tp_ops : int;  (** simulated ops per run (identical across rows) *)
  tp_est : Graft_stats.Robust.estimate;  (** ops per wall-second *)
}

type report = {
  tr_config : Serve.config;  (** the serve config each rep ran *)
  tr_reps : int;
  tr_cores : int;  (** [Domain.recommended_domain_count ()] here *)
  tr_rows : row list;  (** ascending domain count *)
}

(** Run the serve workload [reps] times at each domain count and
    estimate ops per wall-second of the parallel section. Raises
    [Invalid_argument] on an empty count list or [reps < 1]. *)
let run ?(reps = 5) ~domain_counts cfg =
  if domain_counts = [] then invalid_arg "Throughput.run: no domain counts";
  if reps < 1 then invalid_arg "Throughput.run: reps < 1";
  let counts = List.sort_uniq compare domain_counts in
  let rows =
    List.map
      (fun d ->
        let cfg = { cfg with Serve.domains = d } in
        let ops = ref 0 in
        let samples =
          Array.init reps (fun _ ->
              let r = Serve.run cfg in
              ops := r.Serve.r_ops;
              float_of_int r.Serve.r_ops /. r.Serve.r_par_wall_s)
        in
        { tp_domains = d; tp_ops = !ops;
          tp_est = Graft_stats.Robust.estimate samples })
      counts
  in
  {
    tr_config = cfg;
    tr_reps = reps;
    tr_cores = Domain.recommended_domain_count ();
    tr_rows = rows;
  }

let speedup report row =
  match report.tr_rows with
  | first :: _ when first.tp_est.Graft_stats.Robust.median > 0.0 ->
      row.tp_est.Graft_stats.Robust.median
      /. first.tp_est.Graft_stats.Robust.median
  | _ -> 1.0

(** The BENCH_throughput.json rows: ops per wall-second at each domain
    count, higher-better. These are wall-clock numbers on a shared
    machine, so the tolerated move is a loose 0.30. *)
let doc report =
  let d =
    Graft_report.Gate.make ~suite:"serve-throughput"
      ~config:(Servebench.config report.tr_config)
      (List.map
         (fun r ->
           Graft_report.Gate.of_estimate
             ~key:(Printf.sprintf "domains=%d" r.tp_domains)
             ~higher_better:true ~threshold:0.30 r.tp_est)
         report.tr_rows)
  in
  { d with Graft_report.Gate.cores = Some report.tr_cores }

let render report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "graftswarm throughput: %d tenants, %.0fs simulated, %d reps \
        (seed %d, %d core%s available)\n\n"
       report.tr_config.Serve.tenants report.tr_config.Serve.duration_s
       report.tr_reps report.tr_config.Serve.seed report.tr_cores
       (if report.tr_cores = 1 then "" else "s"));
  let t =
    Graft_util.Tablefmt.create
      ~aligns:Graft_util.Tablefmt.[| Right; Right; Right; Right; Right |]
      [| "domains"; "ops"; "ops/s"; "ci95"; "speedup" |]
  in
  List.iter
    (fun r ->
      let open Graft_stats.Robust in
      Graft_util.Tablefmt.add_row t
        [|
          string_of_int r.tp_domains;
          string_of_int r.tp_ops;
          Printf.sprintf "%.0f" r.tp_est.median;
          Printf.sprintf "[%.0f, %.0f]" r.tp_est.ci95_lo r.tp_est.ci95_hi;
          Printf.sprintf "%.2fx" (speedup report r);
        |])
    report.tr_rows;
  Buffer.add_string buf (Graft_util.Tablefmt.render t);
  Buffer.contents buf
