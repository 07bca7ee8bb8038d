(* graftkit command-line interface.

   Subcommands:
     tables    regenerate the paper's tables/figure and the ablations
     gel       compile and run a GEL graft from a file
     script    run a Tcl-like graft script from a file
     tech      list extension technologies and trust models
     measure   run the host measurements (signal / disk / fault)
     trace     run a canned kernel scenario under the Graftscope tracer
     profile   per-opcode profile of a GEL graft across the VM tiers
     protect   run the Graftjail saboteurs and print the protection matrix
     jit       inspect the Graftjit compilation of a GEL graft
*)

open Cmdliner
open Graft_core

(* ---------- tables ---------- *)

let scale_conv =
  let parse = function
    | "quick" -> Ok Graft_report.Experiments.Quick
    | "full" -> Ok Graft_report.Experiments.Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|full)" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | Graft_report.Experiments.Quick -> "quick"
      | Graft_report.Experiments.Full -> "full")
  in
  Arg.conv (parse, print)

let known_tables scale =
  let open Graft_report.Experiments in
  [
    ("table1", fun () -> table1 ());
    ("table2", fun () -> table2 scale);
    ("table3", fun () -> table3 ());
    ("table4", fun () -> table4 ());
    ("table5", fun () -> table5 scale);
    ("table6", fun () -> table6 scale);
    ("figure1", fun () -> figure1 scale);
    ("a1", fun () -> ablation_nil scale);
    ("a2", fun () -> ablation_sfi scale);
    ("a3", fun () -> ablation_interp scale);
    ("a4", fun () -> ablation_regvm ());
    ("a5", fun () -> ablation_upcall ());
    ("a6", fun () -> ablation_pfvm scale);
    ("a7", fun () -> ablation_hipec scale);
    ("a8", fun () -> ablation_trace scale);
    ("a9", fun () -> ablation_supervision scale);
    ("a10", fun () -> ablation_metrics scale);
    (* A14 lives in graft_slo (the serve harness depends on the report
       library, so the report library can't call serve). *)
    ("a14", fun () -> Graft_slo.Flight.ablation scale);
  ]

let tables_cmd =
  let scale =
    Arg.(value & opt scale_conv Graft_report.Experiments.Quick
         & info [ "s"; "scale" ] ~doc:"Experiment scale: quick or full.")
  in
  let only =
    Arg.(value & pos_all string []
         & info [] ~docv:"TABLE"
             ~doc:"Tables to run (table1..table6, figure1, a1..a14); all when omitted.")
  in
  let run scale only =
    let available = known_tables scale in
    let selected =
      if only = [] then List.map snd available
      else
        List.map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) available with
            | Some f -> f
            | None ->
                prerr_endline ("unknown table: " ^ name);
                exit 2)
          only
    in
    List.iter
      (fun f -> print_string (Graft_report.Experiments.render (f ())))
      selected
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables, figure, and ablations")
    Term.(const run $ scale $ only)

(* ---------- gel ---------- *)

let tech_conv =
  let parse s =
    match Technology.of_name s with
    | Some t -> Ok t
    | None -> Error (`Msg ("unknown technology " ^ s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Technology.name t))

let gel_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.gel")
  in
  let entry =
    Arg.(value & opt string "main" & info [ "e"; "entry" ] ~doc:"Entry function.")
  in
  let args =
    Arg.(value & opt_all int [] & info [ "a"; "arg" ] ~doc:"Integer argument (repeatable).")
  in
  let tech =
    Arg.(value & opt tech_conv Technology.Ast_interp
         & info [ "t"; "tech" ]
             ~doc:"Execution technology: ast-interp, bytecode-vm, sfi-wj, sfi-full.")
  in
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"CPU quantum (abstract units).")
  in
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Dump IR and VM code, do not run.") in
  let optimize =
    Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the IR optimizer.")
  in
  let run file entry args tech fuel dump optimize =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Graft_gel.Gel.compile ~optimize src with
    | Error e ->
        prerr_endline ("compile error: " ^ Graft_gel.Srcloc.to_string e);
        exit 1
    | Ok prog -> (
        let mem =
          Graft_mem.Memory.create
            (max 1024
               (Graft_core.Runners.next_pow2 (Graft_gel.Link.footprint prog + 64)))
        in
        match Graft_gel.Link.link prog ~mem ~shared:[] ~hosts:[] with
        | Error msg ->
            prerr_endline ("link error: " ^ msg);
            exit 1
        | Ok image ->
            if dump then begin
              print_endline "-- IR --";
              print_string (Graft_gel.Pretty.program prog);
              print_endline "-- stack VM --";
              print_string
                (Graft_stackvm.Disasm.program
                   (Graft_stackvm.Stackvm.load_exn image));
              print_endline "-- stack VM (optimized) --";
              print_string
                (Graft_stackvm.Disasm.program
                   (Graft_stackvm.Stackvm.load_opt_exn image));
              let static_p = Graft_stackvm.Stackvm.load_static_exn image in
              let elided, total = Graft_stackvm.Stackvm.elision_stats static_p in
              Printf.printf
                "-- stack VM (static checks: %d of %d checks elided) --\n"
                elided total;
              print_string (Graft_stackvm.Disasm.program static_p);
              print_endline "-- register VM (SFI write+jump) --";
              print_string
                (Graft_regvm.Disasm.program (Graft_regvm.Regvm.load_exn image))
            end
            else begin
              let argv = Array.of_list args in
              let show = function
                | Ok v -> Printf.printf "%d\n" v
                | Error (`Fault f) ->
                    Printf.printf "fault: %s\n" (Graft_mem.Fault.to_string f);
                    exit 1
                | Error (`Bad_entry m) ->
                    prerr_endline m;
                    exit 2
              in
              match tech with
              | Technology.Ast_interp ->
                  show (Graft_gel.Interp.run image ~entry ~args:argv ~fuel)
              | Technology.Bytecode_vm ->
                  show
                    (Graft_stackvm.Vm.run
                       (Graft_stackvm.Stackvm.load_exn image)
                       ~entry ~args:argv ~fuel)
              | Technology.Bytecode_opt ->
                  show
                    (Graft_stackvm.Vm.run_opt
                       (Graft_stackvm.Stackvm.load_opt_exn image)
                       ~entry ~args:argv ~fuel)
              | Technology.Safe_lang_static ->
                  show
                    (Graft_stackvm.Vm.run
                       (Graft_stackvm.Stackvm.load_static_exn image)
                       ~entry ~args:argv ~fuel)
              | Technology.Jit ->
                  show
                    (Graft_jit.Jit.run
                       (Graft_jit.Jit.load_exn image)
                       ~entry ~args:argv ~fuel)
              | Technology.Sfi_write_jump | Technology.Sfi_full ->
                  let protection =
                    if tech = Technology.Sfi_full then Graft_regvm.Program.Full
                    else Graft_regvm.Program.Write_jump
                  in
                  let p = Graft_regvm.Regvm.load_exn ~protection image in
                  (match Graft_regvm.Machine.run p ~entry ~args:argv ~fuel with
                  | Ok o -> Printf.printf "%d\n" o.Graft_regvm.Machine.value
                  | Error (`Fault f) ->
                      Printf.printf "fault: %s\n" (Graft_mem.Fault.to_string f);
                      exit 1
                  | Error (`Bad_entry m) ->
                      prerr_endline m;
                      exit 2)
              | t ->
                  prerr_endline
                    ("technology " ^ Technology.name t
                   ^ " does not execute GEL files");
                  exit 2
            end)
  in
  Cmd.v
    (Cmd.info "gel" ~doc:"Compile and run a GEL graft")
    Term.(const run $ file $ entry $ args $ tech $ fuel $ dump $ optimize)

(* ---------- check ---------- *)

let check_cmd =
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE.gel"
             ~doc:"GEL sources to analyze (any number).")
  in
  let entries =
    Arg.(value & opt_all string []
         & info [ "e"; "entry" ]
             ~doc:"Entry-point function (repeatable). Enables the \
                   unreachable-function check.")
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Exit non-zero if any warning is emitted.")
  in
  let builtin =
    Arg.(value & flag
         & info [ "builtin" ]
             ~doc:"Also analyze the built-in grafts (evict, md5, logdisk, \
                   packet filter) at representative sizes.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit machine-readable diagnostics (the shared JSON \
                   envelope) instead of text; exit-code semantics are \
                   unchanged.")
  in
  let run files entries werror builtin json =
    let json_escape s =
      let b = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | '\t' -> Buffer.add_string b "\\t"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    in
    let warnings = ref 0 in
    (* (label, diagnostics) per analyzed source; a diagnostic is
       (line, col, severity, kind, message). *)
    let reports = ref [] in
    let check_source label ~entries src =
      let diags =
        match Graft_gel.Gel.compile_located src with
        | Error e ->
            incr warnings;
            [
              ( e.Graft_gel.Srcloc.pos.Graft_gel.Srcloc.line,
                e.Graft_gel.Srcloc.pos.Graft_gel.Srcloc.col,
                "error",
                "compile",
                e.Graft_gel.Srcloc.msg );
            ]
        | Ok (prog, meta) ->
            let entries = if entries = [] then None else Some entries in
            List.map
              (fun (d : Graft_analysis.Analyze.diag) ->
                incr warnings;
                ( d.Graft_analysis.Analyze.dpos.Graft_gel.Srcloc.line,
                  d.Graft_analysis.Analyze.dpos.Graft_gel.Srcloc.col,
                  "warning",
                  d.Graft_analysis.Analyze.dkind,
                  d.Graft_analysis.Analyze.dmsg ))
              (Graft_analysis.Analyze.check ?entries prog meta)
      in
      reports := (label, diags) :: !reports;
      if not json then
        List.iter
          (fun (line, col, severity, kind, msg) ->
            if severity = "error" then
              Printf.printf "%s: error: line %d, col %d: %s\n" label line col
                msg
            else
              Printf.printf "%s:%d:%d: warning: %s [%s]\n" label line col msg
                kind)
          diags
    in
    List.iter
      (fun file ->
        let src = In_channel.with_open_text file In_channel.input_all in
        check_source file ~entries src)
      files;
    if builtin then begin
      let module G = Graft_grafts.Gel_sources in
      List.iter
        (fun (label, entries, src) -> check_source label ~entries src)
        [
          ( "builtin:evict",
            [ "contains"; "choose" ],
            G.evict ~heap_cells:256 );
          ("builtin:md5", [ "run" ], G.md5 ~data_cells:2048);
          ( "builtin:logdisk",
            [ "reset"; "map_write"; "lookup" ],
            G.logdisk ~nblocks:64 );
          ( "builtin:packet-filter",
            [ "accept" ],
            G.packet_filter ~window_cells:256 ~protocol:6 ~port:80 );
          ( "builtin:demux",
            [ "demux" ],
            G.demux ~window_cells:256 ~protocol:6 ~marker:0x42 );
          ("builtin:hotset", [ "touch"; "hot" ], G.hotset);
        ]
    end;
    if json then begin
      let diag_json (line, col, severity, kind, msg) =
        Printf.sprintf
          "{\"line\":%d,\"col\":%d,\"severity\":\"%s\",\"kind\":\"%s\",\"message\":\"%s\"}"
          line col (json_escape severity) (json_escape kind) (json_escape msg)
      in
      let file_json (label, diags) =
        Printf.sprintf "{\"file\":\"%s\",\"diagnostics\":[%s]}"
          (json_escape label)
          (String.concat "," (List.map diag_json diags))
      in
      print_endline
        (Graft_report.Envelope.wrap ~schema_version:3
           (Printf.sprintf "\"tool\":\"check\",\"werror\":%b,\"warnings\":%d,\"files\":[%s]"
              werror !warnings
              (String.concat ","
                 (List.map file_json (List.rev !reports)))))
    end
    else if !warnings = 0 then print_endline "no warnings";
    if !warnings > 0 && werror then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyze GEL grafts (provable out-of-bounds accesses, \
             guaranteed division by zero, unreachable code, unused locals \
             and functions)")
    Term.(const run $ files $ entries $ werror $ builtin $ json)

(* ---------- script ---------- *)

let script_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.tcl") in
  let fuel =
    Arg.(value & opt int 50_000_000 & info [ "fuel" ] ~doc:"CPU quantum.")
  in
  let run file fuel =
    let src = In_channel.with_open_text file In_channel.input_all in
    let mem = Graft_mem.Memory.create 65536 in
    let t = Graft_script.Script.create ~fuel mem in
    Graft_script.Script.bind_command t ~name:"puts" (fun _ args ->
        print_endline (String.concat " " args);
        "");
    match Graft_script.Script.eval t src with
    | Ok v ->
        if v <> "" then print_endline v
    | Error f ->
        prerr_endline ("fault: " ^ Graft_mem.Fault.to_string f);
        exit 1
  in
  Cmd.v
    (Cmd.info "script" ~doc:"Run a Tcl-like graft script")
    Term.(const run $ file $ fuel)

(* ---------- tech ---------- *)

let tech_cmd =
  let run () =
    let t =
      Graft_util.Tablefmt.create
        [| "Name"; "Paper column"; "Trust model"; "Can crash kernel" |]
    in
    List.iter
      (fun tech ->
        Graft_util.Tablefmt.add_row t
          [|
            Technology.name tech;
            Technology.paper_name tech;
            Technology.trust_name (Technology.trust tech);
            (if Technology.can_crash_kernel tech then "YES" else "no");
          |])
      Technology.all;
    Graft_util.Tablefmt.print t
  in
  Cmd.v (Cmd.info "tech" ~doc:"List extension technologies") Term.(const run $ const ())

(* ---------- measure ---------- *)

let measure_cmd =
  let what =
    Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc:"signal | disk | fault | all")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")
  in
  let run what json =
    let module R = Graft_stats.Robust in
    let est_fields key (e : R.estimate) =
      Printf.sprintf
        "\"%s\":%.3e,\"%s_ci95_lo\":%.3e,\"%s_ci95_hi\":%.3e,\"%s_cv\":%.4f"
        key e.R.median key e.R.ci95_lo key e.R.ci95_hi key e.R.cv
    in
    let signal_json () =
      let r = Graft_measure.Signalbench.measure () in
      Printf.sprintf
        "\"signal\":{%s,\"post_only_s\":%.3e,\"upcall_estimate_s\":%.3e,\"rounds\":%d,\"group_size\":%d}"
        (est_fields "per_signal_s" r.Graft_measure.Signalbench.per_signal_s)
        r.Graft_measure.Signalbench.post_only_s
        (Graft_measure.Signalbench.upcall_estimate_s r)
        r.Graft_measure.Signalbench.rounds
        r.Graft_measure.Signalbench.group_size
    in
    let disk_json () =
      let r = Graft_measure.Diskbench.measure () in
      Printf.sprintf "\"disk\":{%s,\"mb_access_s\":%.3e}"
        (est_fields "bandwidth_bytes_per_s"
           r.Graft_measure.Diskbench.bandwidth_bytes_per_s)
        (Graft_measure.Diskbench.access_time_s r (1024 * 1024))
    in
    let fault_json () =
      let r = Graft_measure.Faultbench.measure () in
      Printf.sprintf "\"fault\":{%s,\"pages\":%d}"
        (est_fields "per_fault_s" r.Graft_measure.Faultbench.per_fault_s)
        r.Graft_measure.Faultbench.pages
    in
    let signal () =
      let r = Graft_measure.Signalbench.measure () in
      Printf.printf "signal handling: %s (post-only baseline %s, %d rounds of %d signals)\n"
        (R.pp_percall r.Graft_measure.Signalbench.per_signal_s)
        (Graft_util.Timer.pp_seconds r.Graft_measure.Signalbench.post_only_s)
        r.Graft_measure.Signalbench.rounds r.Graft_measure.Signalbench.group_size;
      Printf.printf "upcall estimate: %s\n"
        (Graft_util.Timer.pp_seconds (Graft_measure.Signalbench.upcall_estimate_s r))
    in
    let disk () =
      let r = Graft_measure.Diskbench.measure () in
      Printf.printf "disk write bandwidth: %.1f MB/s (1MB in %s)\n"
        (r.Graft_measure.Diskbench.bandwidth_bytes_per_s.R.median /. 1048576.0)
        (Graft_util.Timer.pp_seconds
           (Graft_measure.Diskbench.access_time_s r (1024 * 1024)))
    in
    let fault () =
      let r = Graft_measure.Faultbench.measure () in
      Printf.printf "page fault (mmap touch): %s over %d pages\n"
        (R.pp_percall r.Graft_measure.Faultbench.per_fault_s)
        r.Graft_measure.Faultbench.pages
    in
    let sections =
      match what with
      | "signal" -> [ (signal, signal_json) ]
      | "disk" -> [ (disk, disk_json) ]
      | "fault" -> [ (fault, fault_json) ]
      | "all" -> [ (signal, signal_json); (disk, disk_json); (fault, fault_json) ]
      | s ->
          prerr_endline ("unknown measurement " ^ s);
          exit 2
    in
    if json then begin
      Graft_metrics.enable ();
      let bodies = List.map (fun (_, j) -> j ()) sections in
      Graft_metrics.disable ();
      print_endline
        (Graft_report.Envelope.wrap ~schema_version:3
           (String.concat ","
              (bodies @ [ "\"metrics\":" ^ Graft_metrics.to_json () ])))
    end
    else List.iter (fun (p, _) -> p ()) sections
  in
  Cmd.v (Cmd.info "measure" ~doc:"Host measurements") Term.(const run $ what $ json)

(* ---------- trace ---------- *)

let trace_cmd =
  let graft =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"GRAFT"
             ~doc:"Scenario to trace: md5 | evict | logdisk | demux | \
                   hotset | all.")
  in
  let serve =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"Trace a smoke-sized Graftwatch serve run with Graftlens \
                   causal ids instead of a canned scenario: the Chrome \
                   export carries one process per domain and a trace_id \
                   arg on every span an op touched.")
  in
  let serve_domains =
    Arg.(value & opt int 2
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains for --serve (one Chrome process each).")
  in
  let format =
    Arg.(value
         & opt
             (enum
                [
                  ("chrome", `Chrome); ("folded", `Folded);
                  ("summary", `Summary); ("summary-json", `Summary_json);
                ])
             `Chrome
         & info [ "f"; "format" ]
             ~doc:"Output format: chrome (trace-event JSON for Perfetto), \
                   folded (flamegraph stacks), summary, or summary-json.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write output to $(docv) instead of stdout.")
  in
  let capacity =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~doc:"Ring-buffer capacity (events).")
  in
  let run graft serve serve_domains format out capacity =
    let emit body =
      match out with
      | None -> print_string body
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc body)
    in
    if serve then begin
      (* Graftlens end to end: a smoke serve run with causal tracing,
         exported as one Chrome process per domain. *)
      if format <> `Chrome then begin
        prerr_endline "trace: --serve supports only --format=chrome";
        exit 2
      end;
      let r =
        Graft_slo.Serve.run
          { Graft_slo.Serve.smoke with lens = true; domains = serve_domains }
      in
      match r.Graft_slo.Serve.r_lens with
      | None -> assert false
      | Some lo ->
          emit
            (Graft_trace.Export.chrome_json_of
               ~extra:(Graft_report.Envelope.fields ~schema_version:3)
               (List.map
                  (fun (k, evs, dropped) ->
                    Graft_trace.Export.
                      {
                        p_pid = k + 1;
                        p_name = Printf.sprintf "domain-%d" k;
                        p_events = evs;
                        p_dropped = dropped;
                      })
                  lo.Graft_slo.Serve.lo_shards))
    end
    else begin
      let scenario =
        match List.assoc_opt graft Graft_report.Scenarios.by_name with
        | Some f -> f
        | None ->
            prerr_endline
              ("unknown trace scenario: " ^ graft
             ^ " (md5|evict|logdisk|demux|hotset|all)");
            exit 2
      in
      (* sample=1: a one-shot scenario wants every span, not the
         steady-state sampling the overhead bench uses. *)
      Graft_trace.Trace.enable ~capacity ~sample:1 ();
      scenario ();
      let extra = Graft_report.Envelope.fields ~schema_version:3 in
      let body =
        match format with
        | `Chrome -> Graft_trace.Export.chrome_json ~extra ()
        | `Folded -> Graft_trace.Export.folded ()
        | `Summary -> Graft_trace.Export.summary ()
        | `Summary_json -> Graft_trace.Export.summary_json ~extra ()
      in
      Graft_trace.Trace.disable ();
      emit body
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a canned kernel scenario (or, with --serve, a Graftlens \
             serve run) under the Graftscope tracer and export the trace")
    Term.(const run $ graft $ serve $ serve_domains $ format $ out $ capacity)

(* ---------- protect ---------- *)

let protect_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the matrix as deterministic JSON (for CI golden \
                   comparison) instead of text.")
  in
  let run json =
    let cells = Graft_faultinject.Matrix.build () in
    let demo = Graft_faultinject.Matrix.run_fallback_demo () in
    if json then
      print_endline (Graft_faultinject.Matrix.to_json cells demo)
    else begin
      print_string (Graft_faultinject.Matrix.render cells);
      print_endline (Graft_faultinject.Matrix.render_demo demo)
    end;
    let bad = Graft_faultinject.Matrix.mismatches cells in
    List.iter
      (fun (c : Graft_faultinject.Matrix.cell) ->
        Printf.eprintf "MISMATCH %s x %s: predicted %s, observed %s (%s)\n"
          (Graft_core.Technology.name c.Graft_faultinject.Matrix.tech)
          (Graft_faultinject.Faultinject.class_name
             c.Graft_faultinject.Matrix.fault)
          (Graft_faultinject.Sabotage.outcome_name
             c.Graft_faultinject.Matrix.predicted)
          (Graft_faultinject.Sabotage.outcome_name
             c.Graft_faultinject.Matrix.observed.Graft_faultinject.Sabotage
               .outcome)
          c.Graft_faultinject.Matrix.observed.Graft_faultinject.Sabotage.detail)
      bad;
    if demo.Graft_faultinject.Matrix.panicked then
      prerr_endline "MISMATCH fallback demo: kernel panicked";
    if bad <> [] || demo.Graft_faultinject.Matrix.panicked then exit 1
  in
  Cmd.v
    (Cmd.info "protect"
       ~doc:"Run the Graftjail saboteurs and print the protection matrix: \
             the observed containment of each fault class under each \
             technology, checked against the paper's predictions. Exits \
             nonzero on any mismatch.")
    Term.(const run $ json)

(* ---------- profile ---------- *)

let profile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.gel")
  in
  let entry =
    Arg.(value & opt string "main" & info [ "e"; "entry" ] ~doc:"Entry function.")
  in
  let args =
    Arg.(value & opt_all int []
         & info [ "a"; "arg" ] ~doc:"Integer argument (repeatable).")
  in
  let fuel =
    Arg.(value & opt int 10_000_000
         & info [ "fuel" ] ~doc:"CPU quantum per entry (abstract units).")
  in
  let top =
    Arg.(value & opt int 12 & info [ "top" ] ~doc:"Rows in the hot-spot table.")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "r"; "repeat" ]
             ~doc:"Run the entry this many times per tier.")
  in
  let run file entry args fuel top repeat =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Graft_gel.Gel.compile ~optimize:false src with
    | Error e ->
        prerr_endline ("compile error: " ^ Graft_gel.Srcloc.to_string e);
        exit 1
    | Ok prog ->
        let argv = Array.of_list args in
        (* Fresh image per tier: the program mutates its own memory. *)
        let fresh_image () =
          let mem =
            Graft_mem.Memory.create
              (max 1024
                 (Graft_core.Runners.next_pow2 (Graft_gel.Link.footprint prog + 64)))
          in
          match Graft_gel.Link.link prog ~mem ~shared:[] ~hosts:[] with
          | Error msg ->
              prerr_endline ("link error: " ^ msg);
              exit 1
          | Ok image -> image
        in
        let report label prof result =
          let total_fuel = Graft_trace.Opprof.total_fuel prof in
          Printf.printf "== %s: %d ops, %d fuel ==\n" label
            (Graft_trace.Opprof.total_count prof)
            total_fuel;
          (match result with
          | Ok v -> Printf.printf "result: %d\n" v
          | Error (`Fault f) ->
              Printf.printf "fault: %s\n" (Graft_mem.Fault.to_string f)
          | Error (`Bad_entry m) ->
              prerr_endline m;
              exit 2);
          let t =
            Graft_util.Tablefmt.create [| "opcode"; "count"; "fuel"; "fuel%" |]
          in
          List.iter
            (fun (name, count, fl) ->
              Graft_util.Tablefmt.add_row t
                [|
                  name;
                  string_of_int count;
                  string_of_int fl;
                  Printf.sprintf "%.1f"
                    (100.0 *. float_of_int fl /. float_of_int (max 1 total_fuel));
                |])
            (Graft_trace.Opprof.top prof ~n:top);
          Graft_util.Tablefmt.print t;
          List.iter
            (fun (range, c) -> Printf.printf "fuel/entry %-14s %d\n" range c)
            (Graft_trace.Histo.rows (Graft_trace.Opprof.runs prof));
          print_newline ()
        in
        let repeated f =
          let last = ref (f ()) in
          for _ = 2 to repeat do
            last := f ()
          done;
          !last
        in
        (let prof =
           Graft_trace.Opprof.create ~names:Graft_stackvm.Opcode.class_names
         in
         let s =
           Graft_stackvm.Vm.create_session ~profile:prof
             (Graft_stackvm.Stackvm.load_exn (fresh_image ()))
         in
         report "bytecode-vm" prof
           (repeated (fun () ->
                Graft_stackvm.Vm.run_session s ~entry ~args:argv ~fuel)));
        (let prof =
           Graft_trace.Opprof.create ~names:Graft_stackvm.Opcode.class_names
         in
         let s =
           Graft_stackvm.Vm.create_session ~profile:prof
             (Graft_stackvm.Stackvm.load_opt_exn (fresh_image ()))
         in
         report "bytecode-opt" prof
           (repeated (fun () ->
                Graft_stackvm.Vm.run_session_opt s ~entry ~args:argv ~fuel)));
        (let prof =
           Graft_trace.Opprof.create ~names:Graft_stackvm.Opcode.class_names
         in
         let s =
           Graft_jit.Jit.create_session ~profile:prof
             (Graft_jit.Jit.load_exn (fresh_image ()))
         in
         report "jit" prof
           (repeated (fun () ->
                Graft_jit.Jit.run_session s ~entry ~args:argv ~fuel)));
        let prof =
          Graft_trace.Opprof.create ~names:Graft_regvm.Isa.class_names
        in
        let s =
          Graft_regvm.Machine.create_session ~profile:prof
            (Graft_regvm.Regvm.load_exn (fresh_image ()))
        in
        report "regvm (sfi-wj)" prof
          (Result.map
             (fun o -> o.Graft_regvm.Machine.value)
             (repeated (fun () ->
                  Graft_regvm.Machine.run_session s ~entry ~args:argv ~fuel)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-opcode execution profile of a GEL graft across the VM tiers")
    Term.(const run $ file $ entry $ args $ fuel $ top $ repeat)

(* ---------- jit ---------- *)

let jit_dump_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.gel")
  in
  let run file =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Graft_gel.Gel.compile ~optimize:false src with
    | Error e ->
        prerr_endline ("compile error: " ^ Graft_gel.Srcloc.to_string e);
        exit 1
    | Ok prog -> (
        let mem =
          Graft_mem.Memory.create
            (max 1024
               (Graft_core.Runners.next_pow2 (Graft_gel.Link.footprint prog + 64)))
        in
        match Graft_gel.Link.link prog ~mem ~shared:[] ~hosts:[] with
        | Error msg ->
            prerr_endline ("link error: " ^ msg);
            exit 1
        | Ok image -> (
            match Graft_jit.Jit.load image with
            | Error msg ->
                prerr_endline ("jit load error: " ^ msg);
                exit 1
            | Ok t ->
                let elided, total = Graft_jit.Jit.elision_stats t in
                Printf.printf
                  "-- Graftjit plan (%d of %d checks elided at compile time) \
                   --\n"
                  elided total;
                print_string (Graft_jit.Jit.describe t)))
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print the closure-threaded compilation plan: basic blocks, \
             entry stack heights, the per-instruction closure listing, and \
             which bounds/divisor checks the verifier's interval proofs \
             allowed the compiler to elide")
    Term.(const run $ file)

let jit_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "jit")))) in
  Cmd.group ~default
    (Cmd.info "jit"
       ~doc:"Inspect the Graftjit tier: how a GEL graft compiles to \
             closure-threaded code")
    [ jit_dump_cmd ]

(* ---------- regression gate ---------- *)

let baseline_arg =
  Arg.(value & opt (some file) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Gate the fresh results against this baseline: a \
                 regression (CI-disjoint AND a median move beyond the \
                 threshold) exits 1.")

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save-baseline" ] ~docv:"FILE"
           ~doc:"Write the fresh results as a baseline to $(docv).")

let threshold_arg =
  Arg.(value & opt (some float) None
       & info [ "threshold" ] ~docv:"FRAC"
           ~doc:"Override the suite's regression thresholds (fractional: \
                 0.3 = 30%).")

(* The one path every gated suite takes. The baseline is read before
   [measure] runs and before anything is saved, so one file can be
   both --baseline and --save-baseline, and an unreadable baseline
   fails before a long measurement. An unreadable or mismatched
   baseline exits 2, a regression exits 1. *)
let gated ~cmd ?threshold ~baseline ~save measure =
  let fail msg =
    prerr_endline (cmd ^ ": " ^ msg);
    exit 2
  in
  let base =
    Option.map
      (fun path ->
        match Graft_report.Gate.load path with Ok b -> b | Error m -> fail m)
      baseline
  in
  let doc = measure () in
  Option.iter
    (fun path ->
      Graft_report.Gate.save ~path doc;
      Printf.printf "baseline written to %s\n" path)
    save;
  Option.iter
    (fun base ->
      match Graft_report.Gate.gate ?threshold ~baseline:base doc with
      | Error msg -> fail msg
      | Ok checks ->
          print_string (Graft_report.Gate.render checks);
          if Graft_report.Gate.passed checks then
            Printf.printf "%s: no regressions\n" cmd
          else begin
            prerr_endline (cmd ^ ": REGRESSION detected");
            exit 1
          end)
    base

(* ---------- bench ---------- *)

let bench_cmd =
  let scale =
    Arg.(value & opt scale_conv Graft_report.Experiments.Quick
         & info [ "s"; "scale" ] ~doc:"Harness scale: quick or full.")
  in
  let run scale baseline save threshold =
    let config =
      match scale with
      | Graft_report.Experiments.Quick -> Graft_stats.Harness.quick
      | Graft_report.Experiments.Full -> Graft_stats.Harness.full
    in
    gated ~cmd:"bench" ?threshold ~baseline ~save @@ fun () ->
    let rows = Graft_report.Tierbench.run_suite ~config () in
    let t =
      Graft_util.Tablefmt.create
        [| "Graft"; "interp"; "opt"; "jit"; "opt-speedup"; "jit-speedup";
           "rounds" |]
    in
    List.iter
      (fun (r : Graft_report.Tierbench.row) ->
        let open Graft_stats.Robust in
        let cell e =
          Printf.sprintf "%.1f ns [%.1f, %.1f]" e.median e.ci95_lo e.ci95_hi
        in
        Graft_util.Tablefmt.add_row t
          [|
            r.Graft_report.Tierbench.graft;
            cell r.Graft_report.Tierbench.interp;
            cell r.Graft_report.Tierbench.opt;
            cell r.Graft_report.Tierbench.jit;
            Printf.sprintf "%.2fx"
              (r.Graft_report.Tierbench.interp.median
              /. r.Graft_report.Tierbench.opt.median);
            Printf.sprintf "%.2fx"
              (r.Graft_report.Tierbench.interp.median
              /. r.Graft_report.Tierbench.jit.median);
            string_of_int r.Graft_report.Tierbench.rounds;
          |])
      rows;
    Graft_util.Tablefmt.print t;
    Graft_report.Tierbench.doc rows
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the stack-VM tier benchmark suite with the statistical \
             harness and optionally gate against a saved baseline \
             (noise-aware: a regression requires disjoint 95% CIs and a \
             median move beyond the per-graft threshold)")
    Term.(const run $ scale $ baseline_arg $ save_arg $ threshold_arg)

(* ---------- metrics ---------- *)

let metrics_cmd =
  let scenario =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"SCENARIO"
             ~doc:"Scenario to run with metrics enabled: md5 | evict | \
                   logdisk | demux | hotset | all.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("openmetrics", `Openmetrics); ("json", `Json) ])
             `Openmetrics
         & info [ "f"; "format" ]
             ~doc:"Output format: openmetrics (text exposition) or json.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write output to $(docv) instead of stdout.")
  in
  let run scenario format out =
    let f =
      match List.assoc_opt scenario Graft_report.Scenarios.by_name with
      | Some f -> f
      | None ->
          prerr_endline
            ("unknown metrics scenario: " ^ scenario
           ^ " (md5|evict|logdisk|demux|hotset|all)");
          exit 2
    in
    Graft_metrics.enable ();
    Graft_metrics.reset ();
    f ();
    let body =
      match format with
      | `Openmetrics -> Graft_metrics.to_openmetrics ()
      | `Json ->
          Graft_report.Envelope.wrap ~schema_version:3
            ("\"metrics\":" ^ Graft_metrics.to_json ())
          ^ "\n"
    in
    Graft_metrics.disable ();
    match out with
    | None -> print_string body
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc body)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a canned kernel scenario with the Graftmeter registry \
             enabled and export every metric family as OpenMetrics text or \
             JSON")
    Term.(const run $ scenario $ format $ out)

(* ---------- serve (Graftwatch) ---------- *)

let serve_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI-sized run: 8 tenants, 8 simulated seconds.")
  in
  let tenants =
    Arg.(value & opt (some int) None
         & info [ "tenants" ] ~docv:"N" ~doc:"Tenant count (4 grafts each).")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Simulated seconds of traffic.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"OPS"
             ~doc:"Mean per-tenant arrival rate before Zipf skew.")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Workload seed; the whole report is a function of it.")
  in
  let window =
    Arg.(value & opt (some float) None
         & info [ "window" ] ~docv:"SECONDS" ~doc:"SLO window width.")
  in
  let snapshot_every =
    Arg.(value & opt (some float) None
         & info [ "snapshot-every" ] ~docv:"SECONDS"
             ~doc:"Simulated seconds between OpenMetrics snapshots.")
  in
  let faults =
    Arg.(value & opt (some int) None
         & info [ "faults" ] ~docv:"N" ~doc:"Seeded fault arms to inject.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains; tenants are partitioned round-robin by \
                   Zipf rank. The merged report is identical for every N \
                   (except this field itself and trace-ring drop counts).")
  in
  let throughput =
    Arg.(value & flag
         & info [ "throughput" ]
             ~doc:"Scaling mode: run the workload repeatedly at each \
                   --domain-counts value and report ops per wall-second \
                   with robust CIs instead of the SLO report.")
  in
  let domain_counts =
    Arg.(value & opt (list int) [ 1; 2; 4 ]
         & info [ "domain-counts" ] ~docv:"N,N,..."
             ~doc:"Domain counts to sweep in --throughput mode.")
  in
  let reps =
    Arg.(value & opt int 5
         & info [ "reps" ] ~docv:"N"
             ~doc:"Repetitions per domain count in --throughput mode.")
  in
  let lens =
    Arg.(value & flag
         & info [ "lens" ]
             ~doc:"Enable Graftlens causal tracing: every op gets a trace \
                   id propagated through manager, VM, map, and fallback \
                   spans, with tail-based retention and OpenMetrics \
                   exemplars on the latency histogram.")
  in
  let lens_threshold =
    Arg.(value & opt (some int) None
         & info [ "lens-threshold" ] ~docv:"US"
             ~doc:"Tail-retention latency bar in microseconds (default: \
                   the latency SLO). Ops slower than this, or faulted, \
                   keep their full span sets.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Flight recorder (implies --lens): if the run pages or \
                   quarantines a graft, dump a deterministic post-mortem \
                   bundle (Chrome trace of retained spans, offending \
                   windows, fault plan, strike ledger) under $(docv).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the full report as enveloped JSON.")
  in
  let snapshots_out =
    Arg.(value & opt (some string) None
         & info [ "snapshots" ] ~docv:"FILE"
             ~doc:"Write the periodic snapshot series as JSON to $(docv).")
  in
  let openmetrics_out =
    Arg.(value & opt (some string) None
         & info [ "openmetrics" ] ~docv:"FILE"
             ~doc:"Write the final OpenMetrics exposition to $(docv).")
  in
  let run smoke tenants duration rate seed window snapshot_every faults
      domains throughput domain_counts reps lens lens_thr flight_dir
      json snapshots_out openmetrics_out baseline save threshold =
    let base = if smoke then Graft_slo.Serve.smoke else Graft_slo.Serve.default in
    let cfg =
      Graft_slo.Serve.
        {
          base with
          tenants = Option.value ~default:base.tenants tenants;
          duration_s = Option.value ~default:base.duration_s duration;
          base_rate = Option.value ~default:base.base_rate rate;
          seed = Option.value ~default:base.seed seed;
          window_s = Option.value ~default:base.window_s window;
          snapshot_every_s =
            Option.value ~default:base.snapshot_every_s snapshot_every;
          narms = Option.value ~default:base.narms faults;
          domains = Option.value ~default:base.domains domains;
          lens = lens || flight_dir <> None;
          lens_threshold_us = Option.value ~default:0 lens_thr;
        }
    in
    gated ~cmd:"serve" ?threshold ~baseline ~save @@ fun () ->
    if throughput then begin
      (* Scaling mode: ops per wall-second vs domain count; --baseline /
         --save-baseline refer to BENCH_throughput.json here. *)
      let report =
        Graft_slo.Throughput.run ~reps ~domain_counts:domain_counts cfg
      in
      let doc = Graft_slo.Throughput.doc report in
      if json then print_string (Graft_report.Gate.to_json doc ^ "\n")
      else print_string (Graft_slo.Throughput.render report);
      doc
    end
    else
    let r = Graft_slo.Serve.run cfg in
    if json then print_string (Graft_slo.Serve.to_json r ^ "\n")
    else print_string (Graft_slo.Serve.render r);
    (match flight_dir with
    | Some dir -> (
        match Graft_slo.Flight.write ~dir r with
        | [] ->
            prerr_endline
              "serve: flight recorder armed but no trigger (no page alert, \
               nothing quarantined) — no bundle written"
        | files ->
            Printf.eprintf "serve: flight bundle written to %s (%s)\n" dir
              (String.concat ", " files))
    | None -> ());
    (match snapshots_out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Graft_slo.Serve.snapshots_json r ^ "\n"))
    | None -> ());
    (match openmetrics_out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Graft_metrics.to_openmetrics ()))
    | None -> ());
    Graft_slo.Servebench.doc r
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Graftwatch: replay a skewed multi-tenant workload across \
             hundreds of supervised grafts under simulated time, with \
             injected faults, and report time-series SLO telemetry — \
             per-tenant latency percentiles, fairness, error-budget burn, \
             and MTTR. Deterministic in --seed; optionally gate against \
             BENCH_serve.json (or, with --throughput, \
             BENCH_throughput.json)")
    Term.(
      const run $ smoke $ tenants $ duration $ rate $ seed $ window
      $ snapshot_every $ faults $ domains $ throughput $ domain_counts
      $ reps $ lens $ lens_threshold $ flight_dir $ json $ snapshots_out
      $ openmetrics_out $ baseline_arg $ save_arg $ threshold_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "graftkit" ~version:"1.0.0"
      ~doc:"A comparison of OS extension technologies (USENIX '96 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            tables_cmd; gel_cmd; check_cmd; script_cmd; tech_cmd; measure_cmd;
            trace_cmd; profile_cmd; protect_cmd; bench_cmd; metrics_cmd;
            jit_cmd; serve_cmd;
          ]))
