(* Graftjail: the fault-injection harness and the manager's
   supervision machinery.

   - property tests: under any seeded fault plan, no fault from a
     protected technology escapes the manager barrier, and the
     disable -> backoff -> re-enable -> quarantine state machine
     preserves its invariants;
   - the executable protection matrix: every (technology x fault
     class) cell must match the paper's predicted containment;
   - a golden test pinning the `graftkit protect --json` artifact;
   - unit tests for the kernel-side degradation paths (disk I/O
     retry, upcall server restart, stream fault filters).

   Like test_fuzz, `--seed N` replays one generated fault plan through
   the supervision property in isolation. *)

open Graft_core
open Graft_faultinject
module Fault = Graft_mem.Fault
module K = Graft_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Supervision under seeded fault plans.                               *)
(* ------------------------------------------------------------------ *)

(* Technologies whose faults the barrier must contain: everything the
   paper says cannot crash the kernel. *)
let contained_techs =
  List.filter (fun t -> not (Technology.can_crash_kernel t)) Technology.all

let sites = [ "evict"; "filter"; "map" ]

(* Drive one graft through [rounds] supervised invocations under the
   plan derived from [seed]; every invocation ticks each hook site
   once. Returns the graft for post-hoc assertions. Raises only if the
   barrier leaks. *)
let drive_supervised ~seed ~tech ~policy ~rounds =
  let plan = Faultinject.of_seed ~narms:4 ~max_trigger:12 ~sites seed in
  let m = Manager.create () in
  let g =
    Manager.register m ~name:"sup" ~tech ~structure:Taxonomy.Black_box
      ~motivation:Taxonomy.Functionality ~policy ()
  in
  g.Manager.state <- Manager.Attached;
  for i = 1 to rounds do
    (match
       Manager.invoke g (fun () ->
           List.iter (fun s -> Faultinject.check plan s) sites;
           i)
     with
    | Some v -> check_int "supervised result" i v
    | None -> ());
    if not (Manager.invariants_ok g) then
      Alcotest.failf
        "seed %Ld tech %s round %d: invariants violated (state %s, faults \
         %d, strikes %d, cooldown %d)"
        seed (Technology.name tech) i
        (Manager.state_name g.Manager.state)
        g.Manager.faults g.Manager.strikes g.Manager.cooldown
  done;
  (plan, g)

let small_policy (mf, bb, ms) =
  { Manager.max_faults = mf; backoff_base = bb; backoff_factor = 2;
    max_strikes = ms }

let policy_gen =
  QCheck.(
    triple (int_range 1 3) (int_range 1 4) (int_range 1 3)
    |> map ~rev:(fun p ->
           (p.Manager.max_faults, p.Manager.backoff_base,
            p.Manager.max_strikes))
         small_policy)

let prop_barrier_contains =
  QCheck.Test.make
    ~name:"no seeded fault escapes the barrier (protected technologies)"
    ~count:500
    QCheck.(
      triple int64 (int_range 0 (List.length contained_techs - 1)) policy_gen)
    (fun (seed, ti, policy) ->
      let tech = List.nth contained_techs ti in
      let plan, g =
        try drive_supervised ~seed ~tech ~policy ~rounds:30
        with e ->
          QCheck.Test.fail_reportf "seed %Ld tech %s: escaped: %s" seed
            (Technology.name tech) (Printexc.to_string e)
      in
      (* Every fired arm was either absorbed into the fault budget or
         answered by the fallback; the books must balance. *)
      let fired = List.length (Faultinject.fired plan) in
      if g.Manager.total_faults > fired then
        QCheck.Test.fail_reportf "seed %Ld: %d faults recorded, %d fired"
          seed g.Manager.total_faults fired;
      if fired = 0 && g.Manager.state <> Manager.Attached then
        QCheck.Test.fail_reportf "seed %Ld: no arm fired yet state is %s" seed
          (Manager.state_name g.Manager.state);
      true)

let prop_unsafe_panics =
  QCheck.Test.make
    ~name:"the same plans panic the kernel under unsafe C" ~count:100
    QCheck.int64
    (fun seed ->
      let plan = Faultinject.of_seed ~narms:4 ~max_trigger:12 ~sites seed in
      let m = Manager.create () in
      let g =
        Manager.register m ~name:"unsafe" ~tech:Technology.Unsafe_c
          ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Functionality ()
      in
      g.Manager.state <- Manager.Attached;
      let panicked = ref false in
      (try
         for _ = 1 to 30 do
           ignore
             (Manager.invoke g (fun () ->
                  List.iter (fun s -> Faultinject.check plan s) sites;
                  0))
         done
       with Manager.Kernel_panic _ -> panicked := true);
      (* Plans need not fire within 30 rounds x 3 sites, but when one
         does, the unprotected graft must take the kernel down. *)
      QCheck.assume (Faultinject.fired plan <> []);
      !panicked)

(* The full strike cycle: force faults deterministically and follow
   the machine through disable, backoff, re-enable, and quarantine. *)
let prop_strike_cycle =
  QCheck.Test.make
    ~name:"disable -> backoff -> re-enable -> quarantine preserves invariants"
    ~count:500
    QCheck.(pair policy_gen (int_range 1 50))
    (fun (policy, extra) ->
      (* Shrinking may walk outside the generator's range. *)
      QCheck.assume
        (policy.Manager.max_faults >= 1
        && policy.Manager.backoff_base >= 1
        && policy.Manager.max_strikes >= 1
        && extra >= 1);
      let m = Manager.create () in
      let g =
        Manager.register m ~name:"cycle" ~tech:Technology.Safe_lang
          ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Policy ~policy ()
      in
      g.Manager.state <- Manager.Attached;
      let faulty () = Fault.raise_fault Fault.Nil_dereference in
      let seen_disabled = ref false and seen_reenable = ref false in
      let rounds =
        (* enough invocations to strike out under any generated policy *)
        (policy.Manager.max_faults + (policy.Manager.backoff_base * 8))
        * policy.Manager.max_strikes
        + extra
      in
      let was_disabled = ref false in
      for i = 1 to rounds do
        let before = g.Manager.state in
        (match Manager.invoke g faulty with
        | Some _ -> QCheck.Test.fail_reportf "faulty closure cannot succeed"
        | None -> ());
        if not (Manager.invariants_ok g) then
          QCheck.Test.fail_reportf "round %d: invariants violated (%s)" i
            (Manager.state_name g.Manager.state);
        (match g.Manager.state with
        | Manager.Disabled _ -> seen_disabled := true
        | Manager.Attached -> if !was_disabled then seen_reenable := true
        | _ -> ());
        (match (before, g.Manager.state) with
        | Manager.Quarantined _, s when s <> before ->
            QCheck.Test.fail_reportf "round %d: left quarantine" i
        | _ -> ());
        was_disabled :=
          match g.Manager.state with Manager.Disabled _ -> true | _ -> false
      done;
      (* With an always-faulting graft the cycle must complete. *)
      (match g.Manager.state with
      | Manager.Quarantined _ -> ()
      | s ->
          QCheck.Test.fail_reportf "never struck out: %s (policy %d/%d/%d)"
            (Manager.state_name s) policy.Manager.max_faults
            policy.Manager.backoff_base policy.Manager.max_strikes);
      if g.Manager.strikes <> policy.Manager.max_strikes then
        QCheck.Test.fail_reportf "strikes %d, expected %d" g.Manager.strikes
          policy.Manager.max_strikes;
      (* With one strike the graft quarantines without ever entering
         backoff; with a one-fault budget the re-enabling invocation
         faults straight back to Disabled, so Attached is never
         observable after an invoke. *)
      if (not !seen_disabled) && policy.Manager.max_strikes > 1 then
        QCheck.Test.fail_reportf "never disabled en route";
      if
        (not !seen_reenable)
        && policy.Manager.max_strikes > 1
        && policy.Manager.max_faults > 1
      then QCheck.Test.fail_reportf "never re-enabled en route";
      true)

(* Re-enable must reset the per-window budget: after a backoff expires
   the graft gets max_faults fresh chances, not the stale count. *)
let test_reenable_resets_budget () =
  let m = Manager.create () in
  let g =
    Manager.register m ~name:"fresh" ~tech:Technology.Bytecode_vm
      ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy
      ~policy:(small_policy (2, 2, 3)) ()
  in
  g.Manager.state <- Manager.Attached;
  let faulty () = Fault.raise_fault Fault.Division_by_zero in
  let ok () = 7 in
  ignore (Manager.invoke g faulty);
  ignore (Manager.invoke g faulty);
  (match g.Manager.state with
  | Manager.Disabled _ -> ()
  | s -> Alcotest.failf "expected disabled, got %s" (Manager.state_name s));
  (* Ride out the backoff (base 2) on the kernel's default path. *)
  check_bool "fallback during backoff" true (Manager.invoke g ok = None);
  (* The invocation that expires the cooldown is served by the graft. *)
  check_bool "re-enabled invocation runs" true (Manager.invoke g ok = Some 7);
  check_int "budget reset" 0 g.Manager.faults;
  check_int "one strike" 1 g.Manager.strikes;
  check_bool "attached again" true (g.Manager.state = Manager.Attached)

(* ------------------------------------------------------------------ *)
(* The protection matrix.                                              *)
(* ------------------------------------------------------------------ *)

let matrix = lazy (Matrix.build ())

let test_matrix_cells () =
  let cells = Lazy.force matrix in
  check_int "full matrix"
    (List.length Technology.all * List.length Faultinject.all_classes)
    (List.length cells);
  List.iter
    (fun (c : Matrix.cell) ->
      let name =
        Printf.sprintf "%s x %s" (Technology.name c.Matrix.tech)
          (Faultinject.class_name c.Matrix.fault)
      in
      Alcotest.(check string)
        name
        (Sabotage.outcome_name c.Matrix.predicted)
        (Sabotage.outcome_name c.Matrix.observed.Sabotage.outcome);
      check_bool (name ^ " fallback") true
        c.Matrix.observed.Sabotage.fallback_ok)
    cells

let test_matrix_coverage () =
  let cells = Lazy.force matrix in
  let real =
    List.filter
      (fun (c : Matrix.cell) ->
        c.Matrix.observed.Sabotage.outcome <> Sabotage.Not_applicable)
      cells
  in
  let techs =
    List.sort_uniq compare (List.map (fun c -> c.Matrix.tech) real)
  in
  let faults =
    List.sort_uniq compare (List.map (fun c -> c.Matrix.fault) real)
  in
  check_bool "at least 6 technology columns" true (List.length techs >= 6);
  check_bool "at least 5 fault classes" true (List.length faults >= 5)

let test_fallback_demo () =
  let d = Matrix.run_fallback_demo () in
  check_bool "no panic" false d.Matrix.panicked;
  check_bool "vm invariant" true d.Matrix.vm_invariant_ok;
  check_bool "kernel kept evicting" true (d.Matrix.evictions > 0);
  check_bool "kernel answered for the graft" true (d.Matrix.kernel_fallbacks > 0);
  check_bool "graft faulted" true (d.Matrix.graft_faults > 0);
  let has prefix =
    List.exists
      (fun p ->
        String.length p >= String.length prefix
        && String.sub p 0 (String.length prefix) = prefix)
      d.Matrix.phases
  in
  check_bool "went through disable" true (has "disabled");
  check_bool "came back (re-enable)" true
    (List.exists (( = ) "attached") (List.tl d.Matrix.phases));
  check_bool "ended quarantined" true (has "quarantined")

let test_protect_json_golden () =
  let cells = Lazy.force matrix in
  let demo = Matrix.run_fallback_demo () in
  let got = Matrix.to_json cells demo ^ "\n" in
  let expected =
    In_channel.with_open_text "protect_expected.json" In_channel.input_all
  in
  Alcotest.(check string) "protect --json matches committed golden" expected
    got

(* ------------------------------------------------------------------ *)
(* Fault plans.                                                        *)
(* ------------------------------------------------------------------ *)

let test_plan_determinism () =
  let arms seed =
    Faultinject.arms (Faultinject.of_seed ~narms:5 ~sites seed)
  in
  check_bool "same seed, same plan" true (arms 42L = arms 42L);
  check_bool "different seed, different plan" true (arms 42L <> arms 43L)

let test_plan_triggers () =
  let plan =
    Faultinject.make
      [ ("a", Faultinject.Div_zero, 3); ("a", Faultinject.Wild_store, 5) ]
  in
  check_bool "tick 1" true (Faultinject.tick plan "a" = None);
  check_bool "tick 2" true (Faultinject.tick plan "a" = None);
  check_bool "tick 3 fires div-zero" true
    (Faultinject.tick plan "a" = Some Faultinject.Div_zero);
  check_bool "tick 4" true (Faultinject.tick plan "a" = None);
  check_bool "tick 5 fires wild-store" true
    (Faultinject.tick plan "a" = Some Faultinject.Wild_store);
  check_bool "arms fire once" true (Faultinject.tick plan "a" = None);
  check_int "counted" 6 (Faultinject.ticks plan "a");
  check_int "history" 2 (List.length (Faultinject.fired plan));
  Faultinject.reset plan;
  check_int "reset clears counters" 0 (Faultinject.ticks plan "a");
  check_bool "reset re-arms" true
    (Faultinject.tick plan "a" = None
    && Faultinject.tick plan "a" = None
    && Faultinject.tick plan "a" = Some Faultinject.Div_zero)

(* A check that fires nothing allocates nothing: one lookup finds the
   site's count and arms, and no closure is built per call. *)
let test_check_allocation () =
  let words plan =
    Faultinject.check plan "hook";
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      Faultinject.check plan "hook"
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  Alcotest.(check (float 0.)) "empty plan" 0. (words (Faultinject.make []));
  Alcotest.(check (float 0.)) "armed past the run" 0.
    (words
       (Faultinject.make
          [ ("hook", Faultinject.Div_zero, 20_000); ("other", Faultinject.Nil_deref, 1) ]))

(* ------------------------------------------------------------------ *)
(* Kernel degradation paths.                                           *)
(* ------------------------------------------------------------------ *)

let test_diskmodel_armed_fault () =
  let disk = K.Diskmodel.create K.Diskmodel.modern_params in
  K.Diskmodel.arm_fault disk ~after:1;
  ignore (K.Diskmodel.read disk ~block:0 ~count:1);
  (match K.Diskmodel.read disk ~block:1 ~count:1 with
  | _ -> Alcotest.fail "expected an injected I/O error"
  | exception Fault.Fault (Fault.Host_error _) -> ());
  (* One-shot: the disk disarms after firing. *)
  ignore (K.Diskmodel.read disk ~block:2 ~count:1);
  check_int "io_errors counted" 1 (K.Diskmodel.io_errors disk)

let test_vmsys_retries_io_error () =
  let disk = K.Diskmodel.create K.Diskmodel.modern_params in
  let vm =
    K.Vmsys.create ~disk
      { K.Vmsys.nframes = 2; npages = 8; pages_per_fault = 1 }
  in
  K.Diskmodel.arm_fault disk ~after:0;
  (* The page-fault read fails once, is retried, and the access still
     completes: degradation, not failure. *)
  (match K.Vmsys.access vm 1 with
  | `Fault _ -> ()
  | `Hit -> Alcotest.fail "first access cannot hit");
  check_bool "page resident after retry" true (K.Vmsys.resident vm 1);
  check_int "retry counted" 1 (K.Vmsys.stats vm).K.Vmsys.io_errors;
  check_bool "vm invariant" true (K.Vmsys.invariant_ok vm)

let test_logdisk_retries_io_error () =
  let config = { K.Logdisk.nblocks = 256; segment_blocks = 16 } in
  let params = K.Diskmodel.params_of_bandwidth_kbs 3126.0 in
  let lsd_disk = K.Diskmodel.create params in
  K.Diskmodel.arm_fault lsd_disk ~after:0;
  let workload = Array.init 32 (fun i -> i) in
  let r =
    K.Logdisk.run ~disk_params:params ~lsd_disk config
      (K.Logdisk.native_policy config) workload
  in
  check_int "writes all landed" 32 r.K.Logdisk.writes;
  check_int "no mapping errors" 0 r.K.Logdisk.mapping_errors;
  check_int "one absorbed I/O error" 1 r.K.Logdisk.io_errors

let test_upcall_server_restart () =
  let clock = K.Simclock.create () in
  let domain = K.Upcall.create ~name:"srv" ~clock ~switch_s:20e-6 () in
  (* A healthy upcall round-trips. *)
  check_bool "healthy upcall" true
    (K.Upcall.upcall_supervised domain (fun a -> a.(0) + 1) [| 41 |] = Some 42);
  (* Dead server: the kernel restarts it and answers this one itself. *)
  K.Upcall.kill_server domain;
  check_bool "dead server -> kernel answers" true
    (K.Upcall.upcall_supervised domain (fun a -> a.(0)) [| 1 |] = None);
  check_bool "restarted" true domain.K.Upcall.alive;
  check_int "restart counted" 1 domain.K.Upcall.restarts;
  (* A faulting handler dies in the server, not in the kernel. *)
  check_bool "handler fault -> kernel answers" true
    (K.Upcall.upcall_supervised domain
       (fun _ -> Fault.raise_fault Fault.Nil_dereference)
       [| 1 |]
    = None);
  check_int "second restart" 2 domain.K.Upcall.restarts;
  check_bool "alive again" true domain.K.Upcall.alive;
  (* Service resumes. *)
  check_bool "recovered" true
    (K.Upcall.upcall_supervised domain (fun a -> a.(0) * 2) [| 21 |] = Some 42)

let test_stream_inject_filter () =
  let sunk = ref 0 in
  let faulted = ref None in
  let chain =
    K.Streams.build
      [
        K.Streams.inject_filter ~after:2
          ~fault:(Fault.Host_error "injected stream fault");
      ]
      ~sink:(fun b -> sunk := !sunk + Bytes.length b)
  in
  let push b =
    try K.Streams.push chain (Bytes.of_string b)
    with Fault.Fault f -> faulted := Some (Fault.class_name f)
  in
  push "aa";
  push "bb";
  check_int "first two chunks pass" 4 !sunk;
  push "cc";
  check_bool "third push faults" true (!faulted = Some "host");
  check_int "faulted chunk never reaches the sink" 4 !sunk

(* ------------------------------------------------------------------ *)
(* Entry point, with --seed replay like test_fuzz.                     *)
(* ------------------------------------------------------------------ *)

let parse_seed_arg () =
  let rec scan acc = function
    | [] -> (None, List.rev acc)
    | "--seed" :: n :: rest -> (Some n, List.rev_append acc rest)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--seed=" ->
        (Some (String.sub a 7 (String.length a - 7)), List.rev_append acc rest)
    | a :: rest -> scan (a :: acc) rest
  in
  scan [] (Array.to_list Sys.argv)

let replay seed_str =
  let seed =
    match Int64.of_string_opt seed_str with
    | Some s -> s
    | None ->
        Printf.eprintf "bad --seed %S (want an int64)\n" seed_str;
        exit 2
  in
  let plan = Faultinject.of_seed ~narms:4 ~max_trigger:12 ~sites seed in
  List.iter
    (fun (site, cls, trigger) ->
      Printf.printf "arm: site %s class %s trigger %d\n" site
        (Faultinject.class_name cls) trigger)
    (Faultinject.arms plan);
  List.iter
    (fun tech ->
      let plan, g =
        drive_supervised ~seed ~tech ~policy:Manager.default_policy ~rounds:30
      in
      Printf.printf "%-18s state %-12s faults %d strikes %d fired %d\n"
        (Technology.name tech)
        (Manager.state_name g.Manager.state)
        g.Manager.total_faults g.Manager.strikes
        (List.length (Faultinject.fired plan)))
    contained_techs;
  Printf.printf "seed %Ld: all contained\n" seed

let () =
  match parse_seed_arg () with
  | Some n, _ -> replay n
  | None, argv ->
      let argv = Array.of_list argv in
      let qc = List.map QCheck_alcotest.to_alcotest in
      Alcotest.run ~argv "graft_jail"
        [
          ( "supervision",
            [
              Alcotest.test_case "re-enable resets budget" `Quick
                test_reenable_resets_budget;
            ]
            @ qc
                [
                  prop_barrier_contains; prop_unsafe_panics; prop_strike_cycle;
                ] );
          ( "matrix",
            [
              Alcotest.test_case "all cells match predictions" `Quick
                test_matrix_cells;
              Alcotest.test_case "coverage floor" `Quick test_matrix_coverage;
              Alcotest.test_case "fallback demo" `Quick test_fallback_demo;
              Alcotest.test_case "json golden" `Quick test_protect_json_golden;
            ] );
          ( "plans",
            [
              Alcotest.test_case "determinism" `Quick test_plan_determinism;
              Alcotest.test_case "triggers" `Quick test_plan_triggers;
              Alcotest.test_case "check allocation" `Quick
                test_check_allocation;
            ] );
          ( "degradation",
            [
              Alcotest.test_case "diskmodel armed fault" `Quick
                test_diskmodel_armed_fault;
              Alcotest.test_case "vmsys retries I/O error" `Quick
                test_vmsys_retries_io_error;
              Alcotest.test_case "logdisk retries I/O error" `Quick
                test_logdisk_retries_io_error;
              Alcotest.test_case "upcall server restart" `Quick
                test_upcall_server_restart;
              Alcotest.test_case "stream inject filter" `Quick
                test_stream_inject_filter;
            ] );
        ]
