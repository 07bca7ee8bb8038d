(* Graftswarm's proof obligations: the sharded hot path must be
   indistinguishable from the single-domain one.

   Four layers of evidence:

   1. qcheck merge laws — registry merge (counters sum, gauges max,
      histograms bucketwise) is associative, commutative, has the
      empty registry as identity, and satisfies the split law: apply
      a random op sequence to one registry, or partition it across k
      registries and merge, same exposition. Ditto bare histograms.

   2. The serve differential — the full harness at --domains 1, 2, 4
      (including an uneven partition) produces structurally identical
      JSON once the two documented exceptions ("domains" itself and
      the per-domain trace-ring drop counts) are stripped, identical
      per-tenant totals, and byte-stable replay at a fixed N.

   3. A bounded-exhaustive interleaving test for the lock-free strike
      protocol: Strikes.Make over simulated atomics whose every
      mutation yields to a cooperative scheduler, DFS-enumerating
      EVERY schedule of two threads striking 3 times each. In every
      schedule: no strike is lost and exactly one caller wins the
      quarantine transition.

   4. The same protocol hammered by two real domains over
      Stdlib.Atomic, 10k strikes each, checking the same ledger
      invariants at full scale. *)

module M = Graft_metrics
module Histo = Graft_trace.Histo
module Serve = Graft_slo.Serve
module Strikes = Graft_core.Strikes
module Minijson = Graft_util.Minijson

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* 1. Registry merge laws.                                             *)
(* ------------------------------------------------------------------ *)

(* A random "instrumentation program": ops over a small universe of
   series, encoded as int quads so qcheck can print and shrink them.
   Gauge values are a deterministic function of the series identity —
   every shard that touches a gauge sets the same value, which is
   exactly the discipline the max-merge rule asks of real gauges (or
   they carry a "domain" label and never collide). *)
let label_sets = [| []; [ ("k", "a") ]; [ ("k", "b") ] |]

let apply_op r (tag, fam, lab, v) =
  M.with_registry r (fun () ->
      let labels = label_sets.(lab mod 3) in
      match tag mod 3 with
      | 0 ->
          let c = M.counter (Printf.sprintf "swarm_law_c%d" (fam mod 3)) labels in
          M.inc c ~by:((v mod 5) + 1)
      | 1 ->
          let name = Printf.sprintf "swarm_law_g%d" (fam mod 2) in
          let g = M.gauge name labels in
          M.set g (float_of_int (((fam mod 2) * 10) + (lab mod 3)))
      | _ ->
          let h = M.histogram (Printf.sprintf "swarm_law_h%d" (fam mod 2)) labels in
          M.observe h (v mod 100_000))

let build ops =
  M.enable ();
  let r = M.create_registry () in
  List.iter (apply_op r) ops;
  r

let fp = M.registry_openmetrics

let ops_arb =
  QCheck.(
    list_of_size Gen.(0 -- 40)
      (quad (int_range 0 2) (int_range 0 2) (int_range 0 2)
         (int_range 0 100_000)))

let prop_registry_merge_assoc =
  QCheck.Test.make ~name:"registry merge is associative" ~count:150
    QCheck.(triple ops_arb ops_arb ops_arb)
    (fun (a, b, c) ->
      let m rs = M.merge_registries rs in
      fp (m [ m [ build a; build b ]; build c ])
      = fp (m [ build a; m [ build b; build c ] ]))

let prop_registry_merge_comm =
  QCheck.Test.make ~name:"registry merge is commutative" ~count:150
    QCheck.(pair ops_arb ops_arb)
    (fun (a, b) ->
      fp (M.merge_registries [ build a; build b ])
      = fp (M.merge_registries [ build b; build a ]))

let prop_registry_merge_identity =
  QCheck.Test.make ~name:"empty registry is the merge identity" ~count:150
    ops_arb
    (fun ops ->
      let lhs = fp (M.merge_registries [ build ops; M.create_registry () ]) in
      let rhs = fp (M.merge_registries [ M.create_registry (); build ops ]) in
      lhs = fp (build ops) && rhs = fp (build ops))

(* The law Graftswarm actually relies on: partitioning the
   instrumentation stream across k shards and merging reproduces the
   unsharded registry. *)
let prop_registry_split_law =
  QCheck.Test.make ~name:"k-way split then merge equals one registry"
    ~count:150
    QCheck.(pair (int_range 1 4) ops_arb)
    (fun (k, ops) ->
      M.enable ();
      let shards = Array.init k (fun _ -> M.create_registry ()) in
      List.iteri (fun i op -> apply_op shards.(i mod k) op) ops;
      fp (M.merge_registries (Array.to_list shards)) = fp (build ops))

let prop_histo_split_law =
  QCheck.Test.make ~name:"histogram split then merge_into equals one histo"
    ~count:300
    QCheck.(
      triple (int_range 1 4) (int_range 0 4)
        (list_of_size Gen.(0 -- 100) (int_range 0 1_000_000)))
    (fun (k, subbits, xs) ->
      let parts = Array.init k (fun _ -> Histo.create ~subbits ()) in
      List.iteri (fun i x -> Histo.add parts.(i mod k) x) xs;
      let merged = Histo.create ~subbits () in
      Array.iter (fun h -> Histo.merge_into ~dst:merged h) parts;
      let whole = Histo.create ~subbits () in
      List.iter (Histo.add whole) xs;
      Histo.cumulative merged = Histo.cumulative whole
      && Histo.sum merged = Histo.sum whole)

(* ------------------------------------------------------------------ *)
(* 2. The serve differential.                                          *)
(* ------------------------------------------------------------------ *)

(* Seconds-scale config: 4 tenants so N = 4 is one tenant per domain
   and N = 3 would be uneven — N = 2 already exercises an interleaved
   partition of the Zipf ranks. *)
let tiny =
  {
    Serve.smoke with
    tenants = 4;
    duration_s = 3.0;
    base_rate = 25.0;
    window_s = 1.0;
    snapshot_every_s = 1.0;
    narms = 2;
  }

(* Strip the two fields the merge-equivalence claim excludes: the
   domain count itself, and trace-ring drops (each domain owns a
   fixed-capacity ring, so occupancy depends on the partition). *)
let rec strip = function
  | Minijson.Obj members ->
      Minijson.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "domains" || k = "trace_dropped" then None
             else Some (k, strip v))
           members)
  | Minijson.List xs -> Minijson.List (List.map strip xs)
  | v -> v

let parse_stripped r =
  match Minijson.parse (Serve.to_json r) with
  | Ok doc -> strip doc
  | Error msg -> Alcotest.fail ("serve JSON did not parse: " ^ msg)

let test_serve_domains_equivalent () =
  let r1 = Serve.run { tiny with Serve.domains = 1 } in
  let r2 = Serve.run { tiny with Serve.domains = 2 } in
  let r4 = Serve.run { tiny with Serve.domains = 4 } in
  check_int "same ops at N=2" r1.Serve.r_ops r2.Serve.r_ops;
  check_int "same ops at N=4" r1.Serve.r_ops r4.Serve.r_ops;
  check_int "same errors at N=2" r1.Serve.r_errors r2.Serve.r_errors;
  check_bool "per-tenant stats identical at N=2" true
    (r1.Serve.r_tenants = r2.Serve.r_tenants);
  check_bool "per-tenant stats identical at N=4" true
    (r1.Serve.r_tenants = r4.Serve.r_tenants);
  check_bool "fired fault arms identical" true
    (r1.Serve.r_fired = r2.Serve.r_fired && r1.Serve.r_fired = r4.Serve.r_fired);
  let d1 = parse_stripped r1 in
  check_bool "stripped JSON identical at N=2" true (d1 = parse_stripped r2);
  check_bool "stripped JSON identical at N=4" true (d1 = parse_stripped r4)

let test_serve_replay_stable () =
  let cfg = { tiny with Serve.domains = 2 } in
  let a = Serve.to_json (Serve.run cfg) in
  let b = Serve.to_json (Serve.run cfg) in
  check_bool "byte-stable replay at N=2" true (String.equal a b)

(* The scaling sweep: every domain count recomputes the same report,
   and each row's CI brackets its median. Then the sweep gates against
   itself, and refuses a baseline of another workload. *)
let test_throughput_sweep () =
  let module T = Graft_slo.Throughput in
  let module Gate = Graft_report.Gate in
  let report = T.run ~reps:2 ~domain_counts:[ 2; 1 ] tiny in
  let rows = report.T.tr_rows in
  Alcotest.(check (list int))
    "rows ascending" [ 1; 2 ]
    (List.map (fun r -> r.T.tp_domains) rows);
  List.iter
    (fun r ->
      let e = r.T.tp_est in
      check_int "same simulated ops" (List.hd rows).T.tp_ops r.T.tp_ops;
      check_bool "ci95_lo <= median <= ci95_hi" true
        (e.Graft_stats.Robust.ci95_lo <= e.Graft_stats.Robust.median
        && e.Graft_stats.Robust.median <= e.Graft_stats.Robust.ci95_hi);
      check_bool "ops/s > 0" true (e.Graft_stats.Robust.median > 0.0))
    rows;
  let doc = T.doc report in
  (match Gate.gate ~baseline:doc doc with
  | Ok checks ->
      check_int "one row per domain count" 2 (List.length checks);
      check_bool "self-gate passes" true (Gate.passed checks)
  | Error msg -> Alcotest.fail msg);
  let other =
    T.doc (T.run ~reps:1 ~domain_counts:[ 1 ] { tiny with Serve.seed = 7 })
  in
  check_bool "other seed is an error" true
    (Result.is_error (Gate.gate ~baseline:other doc))

(* ------------------------------------------------------------------ *)
(* 3. Exhaustive interleavings of the strike protocol.                 *)
(* ------------------------------------------------------------------ *)

(* A cooperative scheduler: simulated atomics yield to it before every
   mutation, so a schedule is exactly a sequence of "which thread
   performs its next atomic op". DFS over the schedule prefix
   enumerates every interleaving; each probe re-executes the protocol
   from fresh state, so no continuation is ever resumed twice. *)

type _ Effect.t += Yield : unit Effect.t

let yield () = Effect.perform Yield

module Sim_atomics : Strikes.ATOMICS with type t = int ref = struct
  type t = int ref

  let make v = ref v

  (* [get] backs the read-only accessors the checker calls after the
     schedule completes; it is not part of [strike]'s mutation path,
     so it does not yield. *)
  let get r = !r

  let fetch_and_add r by =
    yield ();
    let v = !r in
    r := v + by;
    v

  let compare_and_set r seen v =
    yield ();
    if !r = seen then begin
      r := v;
      true
    end
    else false
end

module Sim = Strikes.Make (Sim_atomics)

type task = Fin | Sus of (unit, task) Effect.Deep.continuation

let step_start f =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Fin);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> Some (fun (k : (a, _) Effect.Deep.continuation) -> Sus k)
          | _ -> None);
    }

(* Run the system under a schedule prefix. Deterministic: the same
   prefix always reaches the same branch point. *)
let run_schedule mk choices =
  let thunks, inspect = mk () in
  let state = Array.map step_start thunks in
  let rec go choices =
    let runnable =
      List.filter
        (fun i -> match state.(i) with Sus _ -> true | Fin -> false)
        (List.init (Array.length state) Fun.id)
    in
    let resume i =
      match state.(i) with
      | Sus k -> state.(i) <- Effect.Deep.continue k ()
      | Fin -> assert false
    in
    match (runnable, choices) with
    | [], [] -> `Complete (inspect ())
    | [], _ :: _ -> assert false (* replay diverged *)
    | [ i ], cs ->
        resume i;
        go cs
    | _ :: _ :: _, [] -> `Branch (List.length runnable)
    | rs, c :: cs ->
        resume (List.nth rs c);
        go cs
  in
  go choices

let rec explore mk check prefix =
  match run_schedule mk prefix with
  | `Complete result ->
      check result;
      1
  | `Branch width ->
      let total = ref 0 in
      for c = 0 to width - 1 do
        total := !total + explore mk check (prefix @ [ c ])
      done;
      !total

let count_verdicts verdicts =
  let q = ref 0 and a = ref 0 and struck = ref [] in
  List.iter
    (function
      | Strikes.Quarantine -> incr q
      | Strikes.Already_quarantined -> incr a
      | Strikes.Struck n -> struck := n :: !struck)
    verdicts;
  (!q, !a, List.sort compare !struck)

let test_strike_interleavings () =
  (* Two threads, three strikes each, max_strikes = 4: strikes 1-3 are
     plain Struck, and strikes 4-6 race one compare_and_set — the
     schedules where a later faa's CAS lands before an earlier one's
     are exactly the double-quarantine hazard. *)
  let mk () =
    let t = Sim.create ~max_strikes:4 in
    let verdicts = ref [] in
    let thread () =
      for _ = 1 to 3 do
        let v = Sim.strike t in
        verdicts := v :: !verdicts
      done
    in
    ([| thread; thread |], fun () -> (t, !verdicts))
  in
  let check (t, verdicts) =
    let q, a, struck = count_verdicts verdicts in
    if List.length verdicts <> 6 then Alcotest.fail "lost a strike";
    if q <> 1 then Alcotest.fail "quarantine won by <> 1 caller";
    if a <> 2 then Alcotest.fail "wrong Already_quarantined count";
    if struck <> [ 1; 2; 3 ] then
      Alcotest.fail "strike numbers not exactly {1,2,3}";
    if not (Sim.quarantined t) then Alcotest.fail "not quarantined";
    if Sim.strikes t <> 4 then Alcotest.fail "count not capped at max"
  in
  let schedules = explore mk check [] in
  (* 9 scheduling points (6 fetch_and_adds + up to 3 CAS attempts)
     split between two symmetric threads; schedules that differ only
     after one thread has finished collapse into one leaf (the suffix
     is forced), giving exactly 92 distinct behaviours. Pinned so a
     protocol change that alters the reachable schedule set shows up
     here. *)
  check_int "explored the full schedule tree" 92 schedules

(* ------------------------------------------------------------------ *)
(* 4. Real domains over Stdlib.Atomic.                                 *)
(* ------------------------------------------------------------------ *)

let test_strike_hammer () =
  let t = Strikes.create ~max_strikes:15_000 in
  let work () = Array.to_list (Array.init 10_000 (fun _ -> Strikes.strike t)) in
  let d = Domain.spawn work in
  let mine = work () in
  let theirs = Domain.join d in
  let q, a, struck = count_verdicts (mine @ theirs) in
  check_int "exactly one quarantine winner" 1 q;
  check_int "every pre-max strike number claimed once" 14_999
    (List.length struck);
  check_bool "strike numbers are exactly 1..14999" true
    (struck = List.init 14_999 (fun i -> i + 1));
  check_int "the rest told it already happened" 5_000 a;
  check_bool "quarantined" true (Strikes.quarantined t);
  check_int "ledger capped at max" 15_000 (Strikes.strikes t)

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_swarm"
    [
      ( "merge laws",
        qc
          [
            prop_registry_merge_assoc; prop_registry_merge_comm;
            prop_registry_merge_identity; prop_registry_split_law;
            prop_histo_split_law;
          ] );
      ( "serve differential",
        [
          Alcotest.test_case "N in {1,2,4} merge to the N=1 report" `Quick
            test_serve_domains_equivalent;
          Alcotest.test_case "byte-stable replay" `Quick
            test_serve_replay_stable;
          Alcotest.test_case "throughput sweep" `Quick test_throughput_sweep;
        ] );
      ( "strike protocol",
        [
          Alcotest.test_case "exhaustive 2x3 interleavings" `Quick
            test_strike_interleavings;
          Alcotest.test_case "2-domain hammer" `Quick test_strike_hammer;
        ] );
    ]
