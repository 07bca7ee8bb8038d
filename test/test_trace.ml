(* Tests for Graftscope (graft_trace): ring-buffer semantics, sampling,
   the exporters (Chrome JSON validity, folded-stack nesting, summary),
   per-opcode profiling parity across VM tiers, and the manager-disable
   path leaving a visible trace event while the kernel falls back. *)

open Graft_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Minimal recursive-descent JSON validator — no dependencies, just
   enough to catch broken escaping or unbalanced structure in the
   exporters.                                                          *)
(* ------------------------------------------------------------------ *)

exception Bad_json

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let rec ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else raise Bad_json in
  let lit l = String.iter expect l in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | '\255' -> raise Bad_json
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
          | 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                | _ -> raise Bad_json
              done
          | _ -> raise Bad_json);
          go ()
      | _ -> advance (); go ()
    in
    go ()
  in
  let digit () = match peek () with '0' .. '9' -> true | _ -> false in
  let number () =
    if peek () = '-' then advance ();
    if not (digit ()) then raise Bad_json;
    while digit () do advance () done;
    if peek () = '.' then (
      advance ();
      if not (digit ()) then raise Bad_json;
      while digit () do advance () done);
    match peek () with
    | 'e' | 'E' ->
        advance ();
        (match peek () with '+' | '-' -> advance () | _ -> ());
        if not (digit ()) then raise Bad_json;
        while digit () do advance () done
    | _ -> ()
  in
  let rec value () =
    ws ();
    (match peek () with
    | '{' ->
        advance ();
        ws ();
        if peek () = '}' then advance ()
        else
          let rec members () =
            ws ();
            string_ ();
            ws ();
            expect ':';
            value ();
            ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> raise Bad_json
          in
          members ()
    | '[' ->
        advance ();
        ws ();
        if peek () = ']' then advance ()
        else
          let rec elems () =
            value ();
            ws ();
            match peek () with
            | ',' -> advance (); elems ()
            | ']' -> advance ()
            | _ -> raise Bad_json
          in
          elems ()
    | '"' -> string_ ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | _ -> number ());
    ws ()
  in
  match
    value ();
    ws ();
    !pos = n
  with
  | ok -> ok
  | exception Bad_json -> false

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let count = ref 0 in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then incr count
  done;
  !count

let contains hay needle = count_substring hay needle > 0

(* Every test leaves the tracer disabled so suites stay independent. *)
let with_tracer ?(capacity = 1024) ?(sample = 1) f () =
  Trace.disable ();
  Trace.enable ~capacity ~sample ();
  Fun.protect ~finally:Trace.disable f

(* ------------------------------------------------------------------ *)
(* Ring buffer.                                                        *)
(* ------------------------------------------------------------------ *)

let names20 = Array.init 20 (fun i -> Printf.sprintf "e%d" i)

let test_ring_drop_oldest =
  with_tracer ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Trace.instant ~arg:i Trace.App names20.(i)
      done;
      let evs = Trace.events () in
      check_int "keeps capacity" 8 (Array.length evs);
      check_int "dropped = overflow" 12 (Trace.dropped ());
      check_int "total includes dropped" 20 (Trace.total_recorded ());
      (* Drop-oldest: the survivors are the 8 newest, oldest first. *)
      Array.iteri
        (fun i (e : Trace.event) ->
          Alcotest.(check string) "oldest-first order" names20.(12 + i)
            e.Trace.name;
          check_int "arg payload" (12 + i) e.Trace.arg)
        evs;
      Trace.clear ();
      check_int "clear empties" 0 (Array.length (Trace.events ()));
      check_int "clear resets dropped" 0 (Trace.dropped ()))

let test_disabled_noop () =
  Trace.disable ();
  check_bool "disabled" false (Trace.enabled ());
  Trace.instant Trace.App "ignored";
  Trace.counter Trace.Clock "ignored" 42;
  let tok = Trace.span_begin () in
  Trace.span_end ~arg:0 Trace.App "ignored" tok;
  let tok = Trace.hot_begin () in
  Trace.span_end ~arg:0 Trace.App "ignored" tok;
  check_int "nothing recorded" 0 (Array.length (Trace.events ()));
  check_int "no drops" 0 (Trace.dropped ());
  check_int "no totals" 0 (Trace.total_recorded ())

(* A scoped ring puts back the sink it found — the caller's own ring,
   or none — when its body returns and when it raises. *)
let test_with_ring_restores () =
  Trace.enable ~capacity:16 ();
  Trace.instant Trace.App "outer";
  (try
     Trace.with_ring ~capacity:8 (fun () ->
         Trace.instant Trace.App "inner";
         raise Exit)
   with Exit -> ());
  let evs = Trace.events () in
  check_bool "the outer ring is back, without the inner event" true
    (Array.length evs = 1 && evs.(0).Trace.name = "outer");
  Trace.disable ();
  check_bool "on inside" true (Trace.with_ring Trace.enabled);
  check_bool "off after" false (Trace.enabled ())

let test_sampling =
  with_tracer ~capacity:256 ~sample:4 (fun () ->
      for _ = 1 to 16 do
        let tok = Trace.hot_begin () in
        Trace.span_end ~arg:0 Trace.App "hot" tok
      done;
      check_int "1-in-4 sampled" 4 (Array.length (Trace.events ()));
      Trace.clear ();
      for _ = 1 to 16 do
        let tok = Trace.span_begin () in
        Trace.span_end ~arg:0 Trace.App "cold" tok
      done;
      check_int "span_begin never sampled" 16 (Array.length (Trace.events ())))

(* ------------------------------------------------------------------ *)
(* Graftlens op scoping: tail-based retention.                         *)
(* ------------------------------------------------------------------ *)

let test_op_retention =
  with_tracer ~capacity:256 ~sample:4 (fun () ->
      Trace.disable ();
      Trace.enable ~capacity:256 ~sample:4 ~logical:true ();
      (* Non-retained op: of 8 hot spans only the 1-in-4 sampled subset
         survives, and no retention marker is stamped. *)
      Trace.op_begin 0x1000001;
      check_int "tid ambient inside op" 0x1000001 (Trace.current_tid ());
      for _ = 1 to 8 do
        let tok = Trace.hot_begin () in
        Trace.span_end ~arg:0 Trace.Map "map:lookup" tok
      done;
      Trace.op_end ~arg:17 ~retain:false "op:demux";
      check_int "tid cleared after op" 0 (Trace.current_tid ());
      let evs = Trace.events () in
      check_int "sampled subset survives" 2 (Array.length evs);
      Array.iter
        (fun (e : Trace.event) ->
          check_int "survivors carry the op id" 0x1000001 e.Trace.tid)
        evs;
      check_bool "no marker for a non-retained op" false
        (Array.exists (fun (e : Trace.event) -> e.Trace.name = "op:demux") evs);
      check_int "nothing retained yet" 0 (Trace.retained_ops ());
      (* Retained op: every span commits, plus a marker instant carrying
         the id and the latency argument. *)
      Trace.clear ();
      Trace.op_begin 0x2000005;
      for _ = 1 to 8 do
        let tok = Trace.hot_begin () in
        Trace.span_end ~arg:0 Trace.Map "map:update" tok
      done;
      Trace.op_end ~arg:9999 ~retain:true "op:hotset";
      let evs = Trace.events () in
      check_int "whole span set retained (+ marker)" 9 (Array.length evs);
      check_int "one retained op" 1 (Trace.retained_ops ());
      let marker =
        Array.to_list evs
        |> List.find (fun (e : Trace.event) -> e.Trace.name = "op:hotset")
      in
      check_int "marker carries the id" 0x2000005 marker.Trace.tid;
      check_int "marker carries the latency" 9999 marker.Trace.arg;
      check_bool "marker is an App instant" true
        (marker.Trace.track = Trace.App && marker.Trace.kind = Trace.Instant);
      check_int "no spill at this op size" 0 (Trace.op_spilled ()))

let test_op_spill =
  with_tracer ~capacity:4096 (fun () ->
      (* More spans than the pending scratch holds: the overflow is
         counted, the first pending_capacity events still commit. *)
      Trace.op_begin 0x42;
      for _ = 1 to 300 do
        Trace.instant Trace.App "burst"
      done;
      Trace.op_end ~arg:0 ~retain:true "op:stream";
      check_int "overflow counted" 44 (Trace.op_spilled ());
      check_int "scratch-full set + marker" 257
        (Array.length (Trace.events ())))

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)
(* ------------------------------------------------------------------ *)

(* Spin the monotonic clock forward so nested spans get distinct,
   strictly ordered timestamps regardless of clock granularity. *)
let spin () =
  let t0 = Graft_util.Timer.now_ns_int () in
  while Graft_util.Timer.now_ns_int () - t0 < 2000 do
    ()
  done

let scenario_chrome name min_tracks () =
  Trace.disable ();
  Trace.enable ~capacity:65536 ~sample:1 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      (List.assoc name Graft_report.Scenarios.by_name) ();
      let js = Export.chrome_json () in
      check_bool "chrome JSON parses" true (json_valid js);
      check_bool "no drops at this capacity" true (Trace.dropped () = 0);
      let tracks = count_substring js "\"thread_name\"" in
      check_bool
        (Printf.sprintf "%s covers >= %d subsystems (got %d)" name min_tracks
           tracks)
        true
        (tracks >= min_tracks))

let test_folded_nesting =
  with_tracer (fun () ->
      let outer = Trace.span_begin () in
      spin ();
      let inner = Trace.span_begin () in
      spin ();
      Trace.span_end ~arg:0 Trace.App "inner" inner;
      spin ();
      Trace.span_end ~arg:0 Trace.App "outer" outer;
      let f = Export.folded () in
      check_bool "outer line" true (contains f "workload;outer ");
      check_bool "inner nested under outer" true
        (contains f "workload;outer;inner ");
      (* Self time: outer's line excludes inner's time, both positive. *)
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
              let v = int_of_string (String.sub line (i + 1)
                                       (String.length line - i - 1)) in
              check_bool ("positive self: " ^ line) true (v > 0)
          | None -> ())
        (String.split_on_char '\n' (String.trim f)))

let test_summary_contents =
  with_tracer (fun () ->
      let tok = Trace.span_begin () in
      spin ();
      Trace.span_end ~arg:0 Trace.Vmsys "evict-hook" tok;
      Trace.instant Trace.Manager "disable:bad";
      Trace.counter Trace.Clock "page-fault-io" 250;
      Trace.counter Trace.Clock "page-fault-io" 750;
      let s = Export.summary () in
      List.iter
        (fun needle ->
          check_bool ("summary mentions " ^ needle) true (contains s needle))
        [
          "vmsys"; "evict-hook"; "manager"; "disable:bad"; "simclock";
          "page-fault-io"; "events recorded: 4"; "dropped: 0";
        ];
      check_bool "counter summed" true (contains s "1000");
      let js = Export.summary_json () in
      check_bool "summary JSON parses" true (json_valid js);
      check_bool "counter sum in JSON" true (contains js "\"sum\":1000"))

let mk_event ?(tid = 0) ?(ts = 10) name =
  {
    Trace.ts_ns = ts;
    dur_ns = 5;
    track = Trace.Map;
    kind = Trace.Span;
    name;
    arg = 3;
    tid;
  }

(* [graftkit trace all --format=chrome] end to end: the document
   parses with the toolkit's JSON reader and carries events. *)
let test_cli_chrome_all () =
  let code, js = Cli.graftkit [ "trace"; "all"; "--format=chrome" ] in
  check_int "exit" 0 code;
  match Graft_util.Minijson.parse js with
  | Error msg -> Alcotest.failf "trace all JSON does not parse: %s" msg
  | Ok doc ->
      check_bool "trace events present" true
        (match
           Option.bind
             (Graft_util.Minijson.member "traceEvents" doc)
             Graft_util.Minijson.to_list
         with
        | Some (_ :: _) -> true
        | _ -> false)

(* [graftkit trace SCENARIO --format=summary] end to end: it exits 0
   and its table has a row on each of [tracks] and for each of
   [events]. *)
let test_cli_summary scenario ~tracks ~events () =
  let code, out = Cli.graftkit [ "trace"; scenario; "--format=summary" ] in
  check_int "exit" 0 code;
  let rows = String.split_on_char '\n' out in
  List.iter
    (fun t ->
      check_bool ("track " ^ t) true
        (List.exists (String.starts_with ~prefix:("| " ^ t ^ " ")) rows))
    tracks;
  List.iter
    (fun e -> check_bool ("event " ^ e) true (contains out (" " ^ e ^ " |")))
    events

let test_chrome_processes () =
  let js =
    Export.chrome_json_of
      [
        {
          Export.p_pid = 1;
          p_name = "domain-0";
          p_events = [| mk_event ~tid:0x100000a "map:lookup" |];
          p_dropped = 0;
        };
        {
          Export.p_pid = 2;
          p_name = "domain-1";
          p_events = [| mk_event ~ts:25 "map:update" |];
          p_dropped = 3;
        };
      ]
  in
  check_bool "chrome JSON parses" true (json_valid js);
  (* One named process per domain... *)
  check_int "two process_name records" 2 (count_substring js "process_name");
  check_bool "domain names present" true
    (contains js "domain-0" && contains js "domain-1");
  check_bool "second process has pid 2" true (contains js "\"pid\":2");
  (* ...trace ids surface as an exemplar-resolvable arg... *)
  check_bool "trace_id arg rendered" true
    (contains js "\"trace_id\":\"0100000a\"");
  check_int "absent on id-less events" 1 (count_substring js "trace_id");
  (* ...and drops are summed across processes. *)
  check_bool "drops summed" true (contains js "\"droppedEvents\":3")

(* ------------------------------------------------------------------ *)
(* Per-opcode profiling: tier parity.                                  *)
(* ------------------------------------------------------------------ *)

let gel_src =
  "var g : int = 7;\n\
   array arr[8];\n\
   fn main(a : int, b : int) : int {\n\
   var s = a;\n\
   for (var i = 0; i < 50; i = i + 1) {\n\
   s = ((s * 3) ^ (b + i)) & 65535;\n\
   arr[(i) & 7] = s;\n\
   }\n\
   return s + arr[3];\n\
   }\n"

let make_image () =
  let prog =
    match Graft_gel.Gel.compile gel_src with
    | Ok p -> p
    | Error e -> failwith (Graft_gel.Srcloc.to_string e)
  in
  let mem = Graft_mem.Memory.create 1024 in
  match Graft_gel.Link.link prog ~mem ~shared:[] ~hosts:[] with
  | Ok image -> image
  | Error m -> failwith m

let fuel = 1_000_000

let test_opprof_tier_parity () =
  let args = [| 9; 4 |] in
  let run_stack ~opt =
    let pr = Opprof.create ~names:Graft_stackvm.Opcode.class_names in
    let image = make_image () in
    let load =
      if opt then Graft_stackvm.Stackvm.load_opt_exn
      else Graft_stackvm.Stackvm.load_exn
    in
    let s = Graft_stackvm.Vm.create_session ~profile:pr (load image) in
    let fn = Gelrun.fn image "main" ~args in
    match
      Gelrun.outcome (fun () -> Graft_stackvm.Vm.run_session s ~fn ~args ~fuel)
    with
    | Ok v -> (v, pr)
    | Error _ -> Alcotest.fail "stack tier faulted"
  in
  let v_i, pr_i = run_stack ~opt:false in
  let v_o, pr_o = run_stack ~opt:true in
  let v_r, pr_r =
    let pr = Opprof.create ~names:Graft_regvm.Isa.class_names in
    let image = make_image () in
    let prog =
      Graft_regvm.Regvm.load_exn ~protection:Graft_regvm.Program.Write_jump
        image
    in
    let s = Graft_regvm.Machine.create_session ~profile:pr prog in
    let fn = Gelrun.fn image "main" ~args in
    match
      Gelrun.outcome (fun () ->
          Graft_regvm.Machine.run_session s ~fn ~args ~fuel)
    with
    | Ok v -> (v, pr)
    | Error _ -> Alcotest.fail "regvm faulted"
  in
  check_int "interp/opt values agree" v_i v_o;
  check_int "stack/reg values agree" v_i v_r;
  (* Fuel parity: the optimized tier executes fewer (fused) opcodes but
     must charge exactly the plain tier's fuel. *)
  check_int "fuel parity across stack tiers" (Opprof.total_fuel pr_i)
    (Opprof.total_fuel pr_o);
  check_int "plain tier: 1 fuel per opcode" (Opprof.total_count pr_i)
    (Opprof.total_fuel pr_i);
  check_bool "fused tier executes fewer opcodes" true
    (Opprof.total_count pr_o < Opprof.total_count pr_i);
  check_int "regvm: 1 fuel per instruction" (Opprof.total_count pr_r)
    (Opprof.total_fuel pr_r);
  (* The hot-opcode report accounts for every executed instruction. *)
  let top_total =
    List.fold_left (fun acc (_, c, _) -> acc + c) 0
      (Opprof.top pr_i ~n:max_int)
  in
  check_int "top rows cover all hits" (Opprof.total_count pr_i) top_total;
  check_int "one run recorded" 1 (Histo.count (Opprof.runs pr_i));
  (* A second entry doubles the totals and records another run. *)
  let total1 = Opprof.total_fuel pr_i in
  let pr2 = pr_i in
  let image = make_image () in
  let s = Graft_stackvm.Vm.create_session ~profile:pr2
      (Graft_stackvm.Stackvm.load_exn image) in
  let fn = Gelrun.fn image "main" ~args in
  (match
     Gelrun.outcome (fun () -> Graft_stackvm.Vm.run_session s ~fn ~args ~fuel)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second run faulted");
  check_int "fuel accumulates" (2 * total1) (Opprof.total_fuel pr2);
  check_int "two runs recorded" 2 (Histo.count (Opprof.runs pr2))

(* [graftkit profile] pinned byte for byte: the per-opcode counts of a
   finished run, and of one that exhausts its fuel inside a fused
   opcode, must not depend on how the dispatch loop takes its profile.
   Regenerate only for an intended report change, with
   [(graftkit profile examples/grafts/gcd.gel -e gcd -a 48 -a 36;
     graftkit profile examples/grafts/gcd.gel -e gcd -a 48 -a 36
       --fuel 20) > test/profile_expected.txt]. *)
let test_profile_golden () =
  let run extra =
    let code, out =
      Cli.graftkit
        ([ "profile"; "../examples/grafts/gcd.gel"; "-e"; "gcd"; "-a"; "48";
           "-a"; "36" ]
        @ extra)
    in
    check_int "graftkit profile exit code" 0 code;
    out
  in
  let expected =
    In_channel.with_open_text "profile_expected.txt" In_channel.input_all
  in
  Alcotest.(check string) "graftkit profile matches committed golden" expected
    (run [] ^ run [ "--fuel"; "20" ])

(* A graft one tier's loader refuses makes [graftkit profile] print
   the refusal and exit 1 before it prints any table: a 200-deep
   expression loads on the stack tiers, and the register VM runs out
   of registers for it. *)
let test_profile_load_error () =
  let deep = Filename.temp_file "deep" ".gel" in
  Out_channel.with_open_text deep (fun oc ->
      Printf.fprintf oc "fn main(a : int) : int {\n  return %sa%s;\n}\n"
        (String.concat "" (List.init 200 (fun _ -> "(1 + ")))
        (String.make 200 ')'));
  let err = Filename.temp_file "deep" ".err" in
  let code, out = Cli.graftkit ~stderr:err [ "profile"; deep; "-a"; "1" ] in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Sys.remove deep;
  check_int "graftkit profile exit code" 1 code;
  Alcotest.(check string) "no table printed" "" out;
  Alcotest.(check string) "load error printed"
    "load error: expression too deep: out of registers\n" msg

(* ------------------------------------------------------------------ *)
(* Manager disable leaves a trace and the kernel falls back.           *)
(* ------------------------------------------------------------------ *)

let failing_evict : Graft_core.Runners.evict =
  {
    Graft_core.Runners.e_tech = Graft_core.Technology.Safe_lang;
    refresh = (fun ~hot:_ ~lru:_ -> ());
    contains = (fun _ -> false);
    choose =
      (fun () ->
        raise (Graft_mem.Fault.Fault Graft_mem.Fault.Fuel_exhausted));
  }

let test_manager_disable_traced =
  with_tracer ~capacity:4096 (fun () ->
      let open Graft_core in
      let vm =
        Graft_kernel.Vmsys.create
          { Graft_kernel.Vmsys.nframes = 2; npages = 16; pages_per_fault = 1 }
      in
      let mgr = Manager.create () in
      let g =
        Manager.register mgr ~name:"bad" ~tech:Technology.Safe_lang
          ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy
          ~policy:{ Manager.default_policy with max_faults = 1 }
          ()
      in
      Manager.attach_evict mgr ~graft_name:"bad" vm failing_evict
        ~hot_pages:(fun () -> [| 1 |]);
      ignore (Graft_kernel.Vmsys.access vm 1);
      ignore (Graft_kernel.Vmsys.access vm 2);
      (* First eviction: the graft faults, hits its budget, and the
         kernel must still evict its own LRU candidate. *)
      (match Graft_kernel.Vmsys.access vm 3 with
      | `Fault (Some victim) -> check_int "falls back to LRU candidate" 1 victim
      | _ -> Alcotest.fail "expected an eviction");
      check_bool "graft disabled" true
        (match g.Manager.state with Manager.Disabled _ -> true | _ -> false);
      (* Disabled graft: eviction keeps working without it. *)
      (match Graft_kernel.Vmsys.access vm 4 with
      | `Fault (Some victim) -> check_int "still evicts" 2 victim
      | _ -> Alcotest.fail "expected an eviction");
      check_bool "vm invariant holds" true (Graft_kernel.Vmsys.invariant_ok vm);
      let names =
        Array.to_list
          (Array.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()))
      in
      check_bool "fault instant emitted" true (List.mem "fault:bad" names);
      check_bool "disable instant emitted" true (List.mem "disable:bad" names);
      let summary = Export.summary () in
      check_bool "disable visible in summary" true
        (contains summary "disable:bad"))

let () =
  Alcotest.run "graft_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "drop-oldest" `Quick test_ring_drop_oldest;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "scoped ring restores the sink" `Quick
            test_with_ring_restores;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "op retention" `Quick test_op_retention;
          Alcotest.test_case "op pending spill" `Quick test_op_spill;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome md5 scenario" `Quick
            (scenario_chrome "md5" 4);
          Alcotest.test_case "chrome evict scenario" `Quick
            (scenario_chrome "evict" 4);
          Alcotest.test_case "folded nesting" `Quick test_folded_nesting;
          Alcotest.test_case "summary" `Quick test_summary_contents;
          Alcotest.test_case "per-domain processes" `Quick
            test_chrome_processes;
          Alcotest.test_case "graftkit trace all" `Quick test_cli_chrome_all;
          Alcotest.test_case "graftkit trace evict summary" `Quick
            (test_cli_summary "evict" ~tracks:[ "upcall" ]
               ~events:[ "evict-hook" ]);
          Alcotest.test_case "graftkit trace demux summary" `Quick
            (test_cli_summary "demux" ~tracks:[] ~events:[ "map:lookup" ]);
          Alcotest.test_case "graftkit trace hotset summary" `Quick
            (test_cli_summary "hotset" ~tracks:[] ~events:[ "stackvm.jit" ]);
        ] );
      ( "opprof",
        [
          Alcotest.test_case "tier parity" `Quick test_opprof_tier_parity;
          Alcotest.test_case "graftkit profile golden" `Quick
            test_profile_golden;
          Alcotest.test_case "graftkit profile load error" `Quick
            test_profile_load_error;
        ] );
      ( "manager",
        [
          Alcotest.test_case "disable traced, kernel falls back" `Quick
            test_manager_disable_traced;
        ] );
    ]
