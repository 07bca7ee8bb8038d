(* The serve suite's rows for BENCH_serve.json. They live apart from
   {!Serve} so that programs driving serve, the benchmark among them,
   do not link the gate. *)

open Serve

(** The workload a serve or throughput baseline was recorded on; a
    baseline gates only a run of the same workload. *)
let config cfg =
  [
    ("seed", float_of_int cfg.seed); ("tenants", float_of_int cfg.tenants);
    ("duration_s", cfg.duration_s);
  ]

(** The gated rows of a run. Each number is a pure function of (seed,
    config), so it is a degenerate [v, v] interval: any drift means the
    code changed behaviour, and drift beyond 0.10 means it changed
    enough to care (a scheduling-free refactor such as a histogram
    layout change may shift tails a little). Throughput and fairness
    must not fall; latency tails, burn, MTTR and errors must not grow.
    Wall-clock time is deliberately not here. *)
let doc r =
  let row key higher_better value =
    Graft_report.Gate.
      { key; value; ci95_lo = value; ci95_hi = value; higher_better;
        threshold = 0.10 }
  in
  let us v = float_of_int v in
  Graft_report.Gate.make ~suite:"serve" ~config:(config r.r_config)
    [
      row "throughput_ops_per_s" true r.r_throughput;
      row "p50_us" false (us r.r_p50_us);
      row "p95_us" false (us r.r_p95_us);
      row "p99_us" false (us r.r_p99_us);
      row "p999_us" false (us r.r_p999_us);
      row "jain" true r.r_jain;
      row "burn" false r.r_burn;
      row "mttr_mean_s" false r.r_mttr.Mttr.m_mean_s;
      row "error_rate" false r.r_bad_frac;
    ]
