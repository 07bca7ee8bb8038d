(** The experiment driver: regenerates every table and figure of the
    paper's evaluation (section 5) plus the ablations from DESIGN.md.

    Graft times are measured on the host; event costs (signal, fault,
    disk) come from the paper's four platform profiles and from host
    measurements, so break-even points can be compared both ways.
    Interpreted technologies run at a reduced size and are linearly
    extrapolated, with the scale factor recorded in the table notes
    (DESIGN.md section 5). *)

open Graft_util
open Graft_core
open Graft_measure
module Robust = Graft_stats.Robust
module Harness = Graft_stats.Harness

type scale = Quick | Full

type table = {
  id : string;
  title : string;
  body : string;
  notes : string list;
}

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" t.id t.title);
  Buffer.add_string buf t.body;
  List.iter (fun n -> Buffer.add_string buf ("note: " ^ n ^ "\n")) t.notes;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Technologies measured in the graft tables, in presentation order:
   the paper's five columns first, then the ablation variants, then
   the tiers the paper only anticipated (optimized bytecode, statically
   checked bytecode, the JIT). *)
let table_techs =
  [
    Technology.Unsafe_c; Technology.Safe_lang; Technology.Sfi_write_jump;
    Technology.Bytecode_vm; Technology.Source_interp; Technology.Safe_lang_nil;
    Technology.Sfi_full; Technology.Ast_interp; Technology.Bytecode_opt;
    Technology.Safe_lang_static; Technology.Jit;
  ]

let target_s = function Quick -> 0.02 | Full -> 0.1
let runs_of = function Quick -> 5 | Full -> 10

(* Every timing below goes through the shared harness: interleaved
   GC-fenced rounds, outlier rejection, bootstrap CIs, auto-repetition
   until the CI converges. The scale picks the preset. *)
let harness_config ?max_iters scale =
  let base =
    match scale with Quick -> Harness.quick | Full -> Harness.full
  in
  match max_iters with None -> base | Some m -> { base with max_iters = m }

(* Slow (interpreted, single-shot) ops: a fixed small round count
   instead of CI-driven repetition, or a reduced run would take
   minutes. *)
let slow_config ?(max_iters = 1) ~rounds scale =
  { (harness_config ~max_iters scale) with
    min_rounds = rounds;
    max_rounds = rounds + 1;
  }

let time_op ?max_iters scale op =
  Harness.measure ~config:(harness_config ?max_iters scale) op

(* Minor words per call of [op], over [n] calls: an allocation count
   that, unlike a time, does not depend on host speed. *)
let words_per_op ?(n = 10_000) op =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let med (m : Harness.measurement) = m.Harness.est.Robust.median
let fmt_time s = Timer.pp_seconds s
let fmt_meas (m : Harness.measurement) = Robust.pp_percall m.Harness.est
let fmt_norm v = Printf.sprintf "%.2f" v

let fmt_breakeven v =
  if v >= 10000.0 then Printf.sprintf "%.3gk" (v /. 1000.0)
  else Printf.sprintf "%.0f" v

(* ------------------------------------------------------------------ *)
(* Table 1: signal handling time.                                      *)
(* ------------------------------------------------------------------ *)

let table1 ?(rounds = 100) () =
  let host = Signalbench.measure ~rounds () in
  let upcall = Upcallbench.measure ~rounds:(20 * rounds) () in
  let t = Tablefmt.create [| "Platform"; "Signal handling time"; "Upcall estimate" |] in
  List.iter
    (fun (name, s) ->
      Tablefmt.add_row t
        [| name; fmt_time s; fmt_time (s *. 0.6) |])
    Paperdata.table1_signal_s;
  Tablefmt.add_sep t;
  (* Medians: signal and IPC measurements are long-tailed on a busy
     host and the paper's per-run batching already averaged noise. *)
  Tablefmt.add_row t
    [|
      "host (measured)";
      Robust.pp_percall host.Signalbench.per_signal_s;
      fmt_time (host.Signalbench.per_signal_s.Robust.median *. 0.6);
    |];
  Tablefmt.add_row t
    [|
      "host (real upcall RTT)";
      "-";
      Robust.pp_percall upcall.Upcallbench.round_trip_s;
    |];
  {
    id = "Table 1";
    title = "Signal Handling Time";
    body = Tablefmt.render t;
    notes =
      [
        Printf.sprintf
          "host row measured over %d rounds of a %d-signal group; paper rows \
           are the published 1996 values"
          host.Signalbench.rounds host.Signalbench.group_size;
        "upcall estimate is 60%% of signal time (the paper's BSD/OS \
         measurement ran ~40%% quicker than a signal)";
        Printf.sprintf
          "the real-upcall row measures an actual forked server reached \
           over pipes (%d round trips): the paper's structure, built and \
           timed rather than estimated"
          upcall.Upcallbench.rounds;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 2: VM page eviction.                                          *)
(* ------------------------------------------------------------------ *)

(* The measured operation: search a 64-entry hot list for a page that
   is not on it (the common case — a hit occurs once per 781 faults). *)
let hot_pages = Array.init 64 (fun i -> 3 * i)
let absent_page = 100_000

let contains_op tech =
  let rng = Prng.create 0x7AB2EL in
  let runner = Runners.evict ~rng tech ~capacity_nodes:128 () in
  runner.Runners.refresh ~hot:hot_pages ~lru:[||];
  (* Defeat any possibility of the result being cached: alternate the
     probed page (both absent). *)
  let flip = ref false in
  fun () ->
    flip := not !flip;
    ignore (runner.Runners.contains (if !flip then absent_page else absent_page + 1))

let measure_contains scale tech = time_op scale (contains_op tech)

type tech_timing = {
  tt_tech : Technology.t;
  meas : Harness.measurement;
  scaled_from : int option;  (** measured size, when extrapolated *)
  full_s : float;  (** per-op seconds at full size *)
}

let table2_data scale =
  List.map
    (fun tech ->
      let meas = measure_contains scale tech in
      { tt_tech = tech; meas; scaled_from = None; full_s = med meas })
    table_techs

let table2 scale =
  let data = table2_data scale in
  let baseline =
    (List.find (fun d -> d.tt_tech = Technology.Unsafe_c) data).full_s
  in
  let headers =
    Array.of_list
      ([ "Technology"; "raw"; "norm" ]
      @ List.map
          (fun (p : Platform.profile) -> "BE " ^ p.Platform.pname)
          Platform.paper_profiles
      @ [ "helps? (781)" ])
  in
  let t = Tablefmt.create headers in
  List.iter
    (fun d ->
      let be =
        List.map
          (fun (p : Platform.profile) ->
            fmt_breakeven
              (Breakeven.break_even ~event_cost_s:p.Platform.fault_s
                 ~graft_cost_s:d.full_s))
          Platform.paper_profiles
      in
      let solaris = Platform.find_paper "Solaris" in
      let helps =
        Breakeven.worthwhile
          ~break_even:
            (Breakeven.break_even ~event_cost_s:solaris.Platform.fault_s
               ~graft_cost_s:d.full_s)
          ~save_period:Breakeven.paper_save_period
      in
      Tablefmt.add_row t
        (Array.of_list
           ([
              Technology.paper_name d.tt_tech;
              fmt_meas d.meas;
              fmt_norm (Breakeven.normalized ~baseline_s:baseline ~t_s:d.full_s);
            ]
           @ be
           @ [ (if helps then "yes" else "no") ])))
    data;
  {
    id = "Table 2";
    title = "VM Page Eviction (64-entry hot-list search)";
    body = Tablefmt.render t;
    notes =
      [
        "BE <platform> = break-even point against that platform's page-fault \
         time (Table 3); the graft helps the paper's TPC-B model application \
         when BE > 781";
        "paper (Solaris): C 4.5us, Modula-3 6.3us (1.4x), Omniware 6.3us \
         (1.4x), Java 141us (31x), Tcl 40ms (~8900x)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 3: page fault time.                                           *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let host = Faultbench.measure ~runs:5 () in
  let host_sw = host.Faultbench.per_fault_s.Robust.median in
  let t =
    Tablefmt.create [| "Platform"; "Fault time"; "Pages/fault"; "Source" |]
  in
  List.iter
    (fun (name, s, pages) ->
      Tablefmt.add_row t
        [| name; fmt_time s; string_of_int pages; "paper (lmbench)" |])
    Paperdata.table3_fault;
  Tablefmt.add_sep t;
  Tablefmt.add_row t
    [|
      "host (soft fault)";
      Robust.pp_percall host.Faultbench.per_fault_s;
      "1";
      "measured (mmap touch)";
    |];
  let disk = Graft_kernel.Diskmodel.create Graft_kernel.Diskmodel.modern_params in
  let host_major =
    host_sw +. Graft_kernel.Diskmodel.read disk ~block:99991 ~count:1
  in
  Tablefmt.add_row t
    [|
      "host (disk-backed)"; fmt_time host_major; "1"; "measured + disk model";
    |];
  {
    id = "Table 3";
    title = "Page Fault Time";
    body = Tablefmt.render t;
    notes =
      [
        "1995 fault times are dominated by the disk read; the host's \
         software fault path is measured (amortized by the kernel's \
         fault-around batching, hence the sub-ns figure) and its \
         disk-backed cost modelled with a modern-disk profile";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 4: disk I/O time.                                             *)
(* ------------------------------------------------------------------ *)

let table4 ?(runs = 3) () =
  let host = Diskbench.measure ~runs () in
  let t =
    Tablefmt.create [| "Platform"; "Bandwidth"; "1MB access time"; "Source" |]
  in
  List.iter
    (fun (name, bps, mb_s) ->
      Tablefmt.add_row t
        [|
          name;
          Printf.sprintf "%.0f KB/s" (bps /. 1024.0);
          fmt_time mb_s;
          "paper (lmbench)";
        |])
    Paperdata.table4_disk;
  Tablefmt.add_sep t;
  let bw = host.Diskbench.bandwidth_bytes_per_s.Robust.median in
  Tablefmt.add_row t
    [|
      "host";
      Printf.sprintf "%.1f MB/s" (bw /. 1048576.0);
      fmt_time (Diskbench.access_time_s host (1024 * 1024));
      "measured (8MB write+fsync)";
    |];
  {
    id = "Table 4";
    title = "Disk I/O Time (write bandwidth)";
    body = Tablefmt.render t;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* Table 5: MD5 fingerprinting.                                        *)
(* ------------------------------------------------------------------ *)

let md5_full_bytes = 1024 * 1024

(* Per-technology measurement size: interpreters run reduced and
   extrapolate linearly (the paper did the same for Tcl). The Jit
   tier deliberately falls through to the native arms: closure-threaded
   code is fast enough to measure at full size, so its break-even
   point is measured, not extrapolated (scaled_from = None). *)
let md5_measure_bytes scale tech =
  match (Runners.regime tech, scale) with
  | Runners.Script, Quick -> 2048
  | Runners.Script, Full -> 16384
  | Runners.Vm, Quick when tech <> Technology.Jit -> 65536
  | Runners.Vm, Full when tech <> Technology.Jit -> 262144
  | _, Quick -> 262144
  | _, Full -> md5_full_bytes

(* The source interpreter is timed over 3 single-shot rounds: one of
   its ops takes seconds. *)
let scripted tech =
  match Runners.regime tech with Runners.Script -> true | _ -> false

let table5_data scale =
  let rng = Prng.create 0x3D5DA7AL in
  List.map
    (fun tech ->
      let size = md5_measure_bytes scale tech in
      let runner = Runners.md5 tech ~capacity:size in
      let data = Prng.bytes rng size in
      runner.Runners.load data;
      let runs = if scripted tech then 3 else runs_of scale in
      let op () = runner.Runners.compute size in
      (* Small calibrated batches for all but the source interpreter,
         so each timed window is well above timer resolution and GC
         noise. *)
      let max_iters = if scripted tech then 1 else 64 in
      let meas =
        Harness.measure ~config:(slow_config ~max_iters ~rounds:runs scale) op
      in
      (* Verify the digest before trusting the timing. *)
      let expect =
        Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data)
      in
      if runner.Runners.digest_hex () <> expect then
        failwith
          ("table5: wrong digest from " ^ Technology.name tech);
      let full_s =
        (* Median resists the occasional GC pause in large-buffer runs. *)
        Breakeven.extrapolate ~measured_s:(med meas) ~measured_size:size
          ~full_size:md5_full_bytes
      in
      {
        tt_tech = tech;
        meas;
        scaled_from = (if size = md5_full_bytes then None else Some size);
        full_s;
      })
    table_techs

let table5 scale =
  let data = table5_data scale in
  let baseline =
    (List.find (fun d -> d.tt_tech = Technology.Unsafe_c) data).full_s
  in
  let headers =
    Array.of_list
      ([ "Technology"; "raw (1MB)"; "norm" ]
      @ List.map
          (fun (p : Platform.profile) -> "MD5/disk " ^ p.Platform.pname)
          Platform.paper_profiles)
  in
  let t = Tablefmt.create headers in
  List.iter
    (fun d ->
      let ratios =
        List.map
          (fun (p : Platform.profile) ->
            fmt_norm
              (Breakeven.md5_disk_ratio ~compute_s:d.full_s
                 ~disk_s:(Platform.mb_access_s p)))
          Platform.paper_profiles
      in
      let raw =
        match d.scaled_from with
        | None -> fmt_meas d.meas
        | Some n ->
            Printf.sprintf "%s (x%d from %s)" (fmt_time d.full_s)
              (md5_full_bytes / n)
              (fmt_time (med d.meas))
      in
      Tablefmt.add_row t
        (Array.of_list
           ([
              Technology.paper_name d.tt_tech;
              raw;
              fmt_norm (Breakeven.normalized ~baseline_s:baseline ~t_s:d.full_s);
            ]
           @ ratios)))
    data;
  {
    id = "Table 5";
    title = "MD5 Fingerprinting (1MB)";
    body = Tablefmt.render t;
    notes =
      [
        "MD5/disk < 1 means the fingerprint hides inside the disk transfer \
         (paper: C 0.33-0.67, Modula-3 0.64-0.92, Omniware 0.68, Java 32-43, \
         Tcl ~1600)";
        "digests verified against RFC 1321 before every timing";
        "interpreted technologies measured at a reduced size and linearly \
         extrapolated (noted per row)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 6: Logical Disk.                                              *)
(* ------------------------------------------------------------------ *)

let logdisk_nblocks = 262144
let logdisk_full_writes = Paperdata.logdisk_writes

(* As with MD5, the Jit tier takes the native arms: full workload,
   no extrapolation. *)
let logdisk_measure_writes scale tech =
  match (Runners.regime tech, scale) with
  | Runners.Script, Quick -> 1024
  | Runners.Script, Full -> 8192
  | Runners.Vm, Quick when tech <> Technology.Jit -> 8192
  | Runners.Vm, Full when tech <> Technology.Jit -> 65536
  | _, Quick -> 32768
  | _, Full -> logdisk_full_writes

(* 80% of writes to 20% of blocks (paper section 5.6). *)
let skewed_workload n =
  let r = Prng.create 0x10D15CL in
  Array.init n (fun _ ->
      if Prng.float r < 0.8 then Prng.int r (logdisk_nblocks / 5)
      else (logdisk_nblocks / 5) + Prng.int r (logdisk_nblocks * 4 / 5))

type logdisk_timing = {
  lt : tech_timing;
  io_result : Graft_kernel.Logdisk.result;
}

let table6_data scale =
  List.map
    (fun tech ->
      let writes = logdisk_measure_writes scale tech in
      let workload = skewed_workload writes in
      let policy = Runners.logdisk_policy tech ~nblocks:logdisk_nblocks in
      let runs = if scripted tech then 3 else runs_of scale in
      let meas =
        Harness.measure ~config:(slow_config ~rounds:runs scale) (fun () ->
            Array.iter
              (fun logical ->
                ignore (policy.Graft_kernel.Logdisk.map_write logical))
              workload)
      in
      (* Run the engine once for mapping verification and I/O savings
         (era disk: Solaris profile). *)
      let io_result =
        Graft_kernel.Logdisk.run
          { Graft_kernel.Logdisk.nblocks = logdisk_nblocks; segment_blocks = 16 }
          (Runners.logdisk_policy tech ~nblocks:logdisk_nblocks)
          workload
      in
      if io_result.Graft_kernel.Logdisk.mapping_errors <> 0 then
        failwith ("table6: mapping errors from " ^ Technology.name tech);
      let full_s =
        Breakeven.extrapolate ~measured_s:(med meas) ~measured_size:writes
          ~full_size:logdisk_full_writes
      in
      {
        lt =
          {
            tt_tech = tech;
            meas;
            scaled_from =
              (if writes = logdisk_full_writes then None else Some writes);
            full_s;
          };
        io_result;
      })
    table_techs

let table6 scale =
  let data = table6_data scale in
  let baseline =
    (List.find (fun d -> d.lt.tt_tech = Technology.Unsafe_c) data).lt.full_s
  in
  let t =
    Tablefmt.create
      [| "Technology"; "raw (262144 writes)"; "norm"; "per block"; "LSD IO"; "in-place IO" |]
  in
  List.iter
    (fun d ->
      let raw =
        match d.lt.scaled_from with
        | None -> fmt_meas d.lt.meas
        | Some n ->
            Printf.sprintf "%s (x%d from %s)" (fmt_time d.lt.full_s)
              (logdisk_full_writes / n)
              (fmt_time (med d.lt.meas))
      in
      Tablefmt.add_row t
        [|
          Technology.paper_name d.lt.tt_tech;
          raw;
          fmt_norm (Breakeven.normalized ~baseline_s:baseline ~t_s:d.lt.full_s);
          fmt_time
            (Breakeven.per_block_s ~total_s:d.lt.full_s
               ~blocks:logdisk_full_writes);
          fmt_time d.io_result.Graft_kernel.Logdisk.lsd_io_s;
          fmt_time d.io_result.Graft_kernel.Logdisk.inplace_io_s;
        |])
    data;
  {
    id = "Table 6";
    title = "Logical Disk (80/20-skewed writes, 1GB disk, 64KB segments)";
    body = Tablefmt.render t;
    notes =
      [
        "per block = bookkeeping overhead one write must recoup; paper \
         (Solaris): C 7.2us, Modula-3 11.1us, Omniware 8.4us, Java 94us";
        "LSD/in-place IO columns use the Solaris-era disk model over the \
         same (possibly reduced) workload: batching wins by an order of \
         magnitude, dwarfing every technology's bookkeeping cost";
        "mappings shadow-verified for every technology before timing";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 1: break-even vs upcall time.                                *)
(* ------------------------------------------------------------------ *)

let figure1 ?(event_cost_s = 6.9e-3) scale =
  (* Measure the native graft and the two compiled safe technologies. *)
  let native = med (measure_contains scale Technology.Unsafe_c) in
  let m3 = med (measure_contains scale Technology.Safe_lang) in
  let sfi = med (measure_contains scale Technology.Sfi_write_jump) in
  let upcalls = List.init 51 (fun i -> float_of_int i *. 1e-6) in
  let curve =
    Breakeven.upcall_sweep ~event_cost_s ~native_graft_s:native
      ~upcall_times_s:upcalls
  in
  let horizontal s =
    let be = Breakeven.break_even ~event_cost_s ~graft_cost_s:s in
    [| (0.0, be); (50e-6, be) |]
  in
  let to_points l = Array.of_list (List.map (fun (u, b) -> (u *. 1e6, b)) l) in
  let plot =
    Asciiplot.render ~width:64 ~height:20
      ~title:"Figure 1: Break-even vs upcall time (eviction graft, Solaris fault 6.9ms)"
      ~xlabel:"upcall time (us)" ~ylabel:"break-even (invocations)" ~logy:true
      [
        { Asciiplot.label = "user-level server"; points = to_points curve; glyph = '*' };
        {
          Asciiplot.label = Printf.sprintf "Modula-3 in kernel (BE %.0f)" (event_cost_s /. m3);
          points =
            (let a = horizontal m3 in
             Array.map (fun (u, b) -> (u *. 1e6, b)) a);
          glyph = 'm';
        };
        {
          Asciiplot.label = Printf.sprintf "SFI in kernel (BE %.0f)" (event_cost_s /. sfi);
          points =
            (let a = horizontal sfi in
             Array.map (fun (u, b) -> (u *. 1e6, b)) a);
          glyph = 's';
        };
      ]
  in
  let cross_m3 = Breakeven.competitive_upcall_s ~in_kernel_s:m3 ~native_graft_s:native in
  let cross_sfi = Breakeven.competitive_upcall_s ~in_kernel_s:sfi ~native_graft_s:native in
  let real_upcall =
    match Upcallbench.measure ~rounds:500 () with
    | r -> Some r.Upcallbench.round_trip_s.Robust.median
    | exception _ -> None
  in
  {
    id = "Figure 1";
    title = "Break-Even vs Upcall Time";
    body = plot;
    notes =
      ([
         Printf.sprintf
           "an upcall must cost under %s to match in-kernel Modula-3 and \
            under %s to match SFI (paper: ~5us, 'difficult to achieve')"
           (fmt_time (Float.max 0.0 cross_m3))
           (fmt_time (Float.max 0.0 cross_sfi));
       ]
      @
      match real_upcall with
      | Some rtt ->
          [
            Printf.sprintf
              "the host's real upcall round trip (forked server over pipes) \
               is %s — %.0fx over the budget, so user-level servers remain \
               uncompetitive for this graft"
              (fmt_time rtt)
              (rtt /. Float.max 1e-9 cross_m3);
          ]
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

(* A1: explicit NIL checks vs trap-based (the paper's Linux anomaly). *)
let ablation_nil scale =
  let checked = measure_contains scale Technology.Safe_lang in
  let nil = measure_contains scale Technology.Safe_lang_nil in
  let unsafe = measure_contains scale Technology.Unsafe_c in
  let t = Tablefmt.create [| "Regime"; "raw"; "vs C" |] in
  let base = med unsafe in
  List.iter
    (fun (name, m) ->
      Tablefmt.add_row t [| name; fmt_meas m; fmt_norm (med m /. base) |])
    [
      ("C (unsafe)", unsafe);
      ("Modula-3, trap-based NIL (Solaris/Alpha)", checked);
      ("Modula-3, explicit NIL checks (Linux)", nil);
    ];
  {
    id = "Ablation A1";
    title = "NIL-check strategy (paper Table 2's Linux anomaly)";
    body = Tablefmt.render t;
    notes =
      [
        "the paper saw 1.1x with trap-based NIL and 2.5x with explicit \
         checks; the delta here is one compare-and-branch per access";
      ];
  }

(* A2: SFI write+jump vs full protection. *)
let ablation_sfi scale =
  let size = match scale with Quick -> 65536 | Full -> 262144 in
  let rng = Prng.create 0xA2L in
  let data = Prng.bytes rng size in
  let row tech =
    let runner = Runners.md5 tech ~capacity:size in
    runner.Runners.load data;
    let m =
      Harness.measure
        ~config:(slow_config ~rounds:(runs_of scale) scale)
        (fun () -> runner.Runners.compute size)
    in
    (tech, m)
  in
  let rows = List.map row [ Technology.Unsafe_c; Technology.Sfi_write_jump; Technology.Sfi_full ] in
  let base = med (snd (List.hd rows)) in
  let t = Tablefmt.create [| "Protection"; "MD5 raw"; "vs C" |] in
  List.iter
    (fun (tech, m) ->
      Tablefmt.add_row t
        [| Technology.paper_name tech; fmt_meas m; fmt_norm (med m /. base) |])
    rows;
  {
    id = "Ablation A2";
    title = "SFI protection level (write+jump vs full read+write)";
    body = Tablefmt.render t;
    notes =
      [
        Printf.sprintf "MD5 over %d bytes; the paper's Omniware beta had no \
                        read protection, which 'gives it a performance \
                        advantage'; full protection masks loads too" size;
      ];
  }

(* A3: interpreter designs. *)
let ablation_interp scale =
  let data =
    List.map
      (fun tech -> (tech, measure_contains scale tech))
      [
        Technology.Unsafe_c; Technology.Bytecode_vm; Technology.Ast_interp;
        Technology.Source_interp;
      ]
  in
  let base = med (snd (List.hd data)) in
  let t = Tablefmt.create [| "Interpreter"; "hot-list search"; "vs C" |] in
  List.iter
    (fun (tech, m) ->
      Tablefmt.add_row t
        [| Technology.paper_name tech; fmt_meas m; fmt_norm (med m /. base) |])
    data;
  {
    id = "Ablation A3";
    title = "Interpreter design: bytecode vs AST walk vs source re-parse";
    body = Tablefmt.render t;
    notes =
      [
        "the paper's Java/Tcl gap (31x vs ~8900x on Solaris) is an \
         interpreter-design gap, not a language gap; the AST walk sits \
         between them";
      ];
  }

(* A4: SFI instrumentation cost in executed instructions (regvm), on
   a read-heavy graft (hot-list search) and a store-heavy one (64
   logical-disk mapped writes). *)
let ablation_regvm () =
  let hot = hot_pages in
  let search_count ?elide protection =
    let refresh, contains =
      Runners.evict_regvm ~rng:(Prng.create 0xA4L) ?elide ~protection
        ~capacity_nodes:128 ()
    in
    refresh ~hot ~lru:[||];
    let _, icount = contains absent_page in
    icount
  in
  let write_count ?elide protection =
    Runners.logdisk_regvm_instructions ?elide ~protection ~nblocks:1024
      ~writes:64 ()
  in
  let t =
    Tablefmt.create
      [| "Protection"; "search (reads)"; "overhead"; "64 map-writes"; "overhead" |]
  in
  let sb = search_count Graft_regvm.Program.Unprotected in
  let wb = write_count Graft_regvm.Program.Unprotected in
  let pct base n =
    Printf.sprintf "%.1f%%" (100.0 *. (float_of_int (n - base) /. float_of_int base))
  in
  List.iter
    (fun (name, protection, elide) ->
      let sn = search_count ~elide protection
      and wn = write_count ~elide protection in
      Tablefmt.add_row t
        [| name; string_of_int sn; pct sb sn; string_of_int wn; pct wb wn |])
    [
      ("unprotected", Graft_regvm.Program.Unprotected, false);
      ("write+jump", Graft_regvm.Program.Write_jump, false);
      ("write+jump, elided", Graft_regvm.Program.Write_jump, true);
      ("full (read+write)", Graft_regvm.Program.Full, false);
      ("full, elided", Graft_regvm.Program.Full, true);
    ];
  {
    id = "Ablation A4";
    title = "SFI instrumentation cost at the ISA level (register VM)";
    body = Tablefmt.render t;
    notes =
      [
        "dynamic instruction counts; write+jump sandboxing is free on the \
         read-only search and costs three ALU ops per store on the write \
         path, while full protection also taxes every load — the asymmetry \
         behind the Omniware beta's missing read protection";
        "the elided rows apply Graftcheck mask elision: masking triples are \
         dropped where the interval analysis proves the address in-segment, \
         and the load-time verifier re-derives every elision before \
         admitting the program";
      ];
  }

(* A5: upcall marshalling for the stream graft (paper section 5.5's
   16-upcalls-per-MB estimate). *)
let ablation_upcall () =
  let native_md5_1mb =
    let runner = Runners.md5 Technology.Unsafe_c ~capacity:md5_full_bytes in
    let data = Prng.bytes (Prng.create 1L) md5_full_bytes in
    runner.Runners.load data;
    med
      (Harness.measure ~config:(slow_config ~rounds:3 Quick) (fun () ->
           runner.Runners.compute md5_full_bytes))
  in
  let t =
    Tablefmt.create
      [| "Chunk"; "Upcalls/MB"; "Boundary cost (50us upcall)"; "vs compute" |]
  in
  List.iter
    (fun chunk ->
      let upcalls = md5_full_bytes / chunk in
      let clock = Graft_kernel.Simclock.create () in
      let d =
        Graft_kernel.Upcall.create ~name:"md5srv" ~clock ~switch_s:25e-6 ()
      in
      (* Each upcall marshals its chunk across the boundary. *)
      let cost =
        float_of_int upcalls
        *. Graft_kernel.Upcall.cost d ~words:((chunk / 8) + 2)
      in
      Tablefmt.add_row t
        [|
          Printf.sprintf "%dKB" (chunk / 1024);
          string_of_int upcalls;
          fmt_time cost;
          Printf.sprintf "%.1f%%" (100.0 *. cost /. native_md5_1mb);
        |])
    [ 4096; 16384; 65536; 262144; 1048576 ];
  {
    id = "Ablation A5";
    title = "Upcall marshalling for the stream graft (1MB fingerprint)";
    body = Tablefmt.render t;
    notes =
      [
        Printf.sprintf
          "native 1MB fingerprint costs %s; the paper assumed 16 upcalls \
           (64KB chunks) and found the boundary cost insignificant — it \
           still is unless chunks shrink to pages"
          (fmt_time native_md5_1mb);
      ];
  }

(* A6: the specialized-language point (paper section 2): a BPF-like
   filter VM against the general-purpose technologies on packet
   demultiplexing. *)
let ablation_pfvm scale =
  let rng = Prng.create 0xA6L in
  let traffic = Graft_kernel.Netpkt.random_traffic rng ~count:256 in
  let techs =
    [
      Technology.Unsafe_c; Technology.Safe_lang; Technology.Specialized_vm;
      Technology.Bytecode_vm; Technology.Ast_interp; Technology.Source_interp;
    ]
  in
  let data =
    List.map
      (fun tech ->
        let accepts =
          Runners.packet_filter tech ~protocol:Graft_kernel.Netpkt.proto_udp
            ~port:53
        in
        let i = ref 0 in
        let op () =
          i := (!i + 1) land 255;
          ignore (accepts traffic.(!i))
        in
        (tech, time_op scale op))
      techs
  in
  let base = med (snd (List.hd data)) in
  let matches =
    let accepts =
      Runners.packet_filter Technology.Unsafe_c
        ~protocol:Graft_kernel.Netpkt.proto_udp ~port:53
    in
    Array.fold_left (fun acc p -> if accepts p then acc + 1 else acc) 0 traffic
  in
  let t = Tablefmt.create [| "Technology"; "per packet"; "vs C" |] in
  List.iter
    (fun (tech, m) ->
      Tablefmt.add_row t
        [| Technology.paper_name tech; fmt_meas m; fmt_norm (med m /. base) |])
    data;
  {
    id = "Ablation A6";
    title = "Specialized vs general-purpose extension language (packet demux)";
    body = Tablefmt.render t;
    notes =
      [
        Printf.sprintf
          "filter: ip and udp and dst port 53 over a random traffic mix \
           (%d of 256 packets match); the paper: 'the performance of \
           interpreted packet filters is close to that of compiled code, \
           but the expressiveness is limited' — the filter VM cannot \
           express any of the three general grafts"
          matches;
        "general-purpose VM technologies also pay a packet copy into their \
         graft window; the filter VM, like BPF, reads the packet in place";
      ];
  }

(* A7: HiPEC-style specialized eviction language vs the general
   technologies on full victim selection. *)
let ablation_hipec scale =
  let npages = 4096 in
  let hot = Array.init 64 (fun i -> 3 * i) in
  (* LRU queue whose first 8 candidates are hot, so every policy walks
     a little before selecting. *)
  let lru =
    Array.init 32 (fun i -> if i < 8 then hot.(i * 7) else 2000 + i)
  in
  let rng = Prng.create 0xA7L in
  let techs =
    [
      Technology.Unsafe_c; Technology.Safe_lang; Technology.Bytecode_vm;
      Technology.Ast_interp; Technology.Source_interp;
    ]
  in
  let tech_rows =
    List.map
      (fun tech ->
        let runner = Runners.evict ~rng tech ~capacity_nodes:128 () in
        runner.Runners.refresh ~hot ~lru;
        let m = time_op scale (fun () -> ignore (runner.Runners.choose ())) in
        (Technology.paper_name tech, m, runner.Runners.choose ()))
      techs
  in
  let hipec_row =
    let sets = [| Graft_kernel.Hipec.Pageset.of_array npages hot |] in
    let p = Graft_kernel.Hipec.avoid_hot_set in
    (match Graft_kernel.Hipec.verify ~nsets:1 p with
    | Ok () -> ()
    | Error m -> failwith m);
    let candidate = lru.(0) in
    let m =
      time_op scale (fun () ->
          ignore
            (Graft_kernel.Hipec.select p ~sets ~lru_pages:lru ~candidate))
    in
    ( "HiPEC-like policy VM",
      m,
      Graft_kernel.Hipec.select p ~sets ~lru_pages:lru ~candidate )
  in
  let rows = tech_rows @ [ hipec_row ] in
  (* All mechanisms must agree on the victim. *)
  let _, _, expect = List.hd rows in
  List.iter
    (fun (name, _, got) ->
      if got <> expect then
        failwith (Printf.sprintf "A7: %s picked %d, expected %d" name got expect))
    rows;
  let _, base, _ = List.hd rows in
  let base = med base in
  let t = Tablefmt.create [| "Mechanism"; "victim selection"; "vs C" |] in
  List.iter
    (fun (name, m, _) ->
      Tablefmt.add_row t [| name; fmt_meas m; fmt_norm (med m /. base) |])
    rows;
  {
    id = "Ablation A7";
    title = "HiPEC-style specialized policy language (full victim selection)";
    body = Tablefmt.render t;
    notes =
      [
        "the HiPEC-like VM interprets a 3-instruction policy per page but \
         its hot-set membership test is a native O(1) bitmap primitive, \
         where the general-purpose grafts walk the 64-entry hot list per \
         candidate — a specialized runtime wins by shipping better \
         domain primitives, not by interpreting faster; the price is \
         being useless outside VM caching (it cannot express MD5 or a \
         block map)";
        "all mechanisms selected the same victim before timing";
      ];
  }

(* Round count for the overhead ablation (A8): the deltas of interest
   are a few percent, so it gets more rounds than the tables. *)
let overhead_config scale =
  { (harness_config scale) with
    min_rounds = 2 * runs_of scale;
    max_rounds = 4 * runs_of scale;
  }

(* The budget the enabled tracers are held to (A8's ring, A14's lens),
   judged on the paired delta's CI by [Harness.budget]. *)
let overhead_budget_pct = 5.0

let budget_note =
  "budget: within = the delta's whole 95% CI is at or under the budget, \
   over = its whole CI is above it, unproven = the CI straddles it"

(* A8: what the instrumentation layers cost the Table 2 operation. Per
   technology, one interleaved harness times five stages of the op,
   each adding one layer (the table's first note defines them). The
   harness GC-fences each sample: without the fence, collecting a
   round's discarded ring lands inside the next sample and reads as
   tracer overhead. Each stage's delta is paired by round with the
   stage it adds a layer to. *)
let ablation_overhead scale =
  let module T = Graft_trace.Trace in
  let techs =
    [ Technology.Unsafe_c; Technology.Safe_lang; Technology.Bytecode_vm ]
  in
  let metrics_were_on = Graft_metrics.enabled () in
  Graft_metrics.disable ();
  T.disable ();
  let rows =
    List.map
      (fun tech ->
        let bare = contains_op tech in
        (* The Table 2 op reaches built-in instrumentation only through
           the VM technologies' dispatch loops, so the site stages wrap
           it in their own span: the cost any subsystem pays for
           carrying a sampled span site. *)
        let site () =
          let tok = T.hot_begin () in
          bare ();
          T.span_end T.App "contains" tok
        in
        let g =
          Manager.register (Manager.create ())
            ~name:("overhead:" ^ Technology.name tech)
            ~tech ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy
            ()
        in
        g.Manager.state <- Manager.Attached;
        let invoke () = ignore (Manager.invoke g bare) in
        let recorded = ref 0 in
        (* (label, the stage its delta is taken against, thunk) *)
        let stages =
          [|
            ("bare", None, Harness.stage bare);
            ("site", Some 0, Harness.stage site);
            ( "ring",
              Some 1,
              {
                Harness.prepare =
                  (fun () -> T.enable ~capacity:(1 lsl 15) ~sample:32 ());
                op = site;
                finish =
                  (fun () ->
                    recorded := !recorded + T.total_recorded ();
                    T.disable ());
              } );
            ("invoke", Some 0, Harness.stage invoke);
            ( "metrics",
              Some 3,
              {
                Harness.prepare = Graft_metrics.enable;
                op = invoke;
                finish = Graft_metrics.disable;
              } );
          |]
        in
        let ms =
          Harness.interleaved ~config:(overhead_config scale)
            (Array.map (fun (_, _, thunk) -> thunk) stages)
        in
        (tech, stages, ms, !recorded))
      techs
  in
  if metrics_were_on then Graft_metrics.enable ();
  let t =
    Tablefmt.create
      ~aligns:Tablefmt.[| Left; Left; Right; Right; Right; Right |]
      [|
        "Technology"; "stage"; "per call"; "paired delta";
        Printf.sprintf "budget <=%.0f%% (95%% CI)" overhead_budget_pct;
        "events";
      |]
  in
  List.iteri
    (fun i (tech, stages, (ms : Harness.measurement array), recorded) ->
      if i > 0 then Tablefmt.add_sep t;
      Array.iteri
        (fun k (label, against, _) ->
          let delta =
            Option.map
              (fun b ->
                let base, _, _ = stages.(b) in
                ( Harness.paired_delta_pct ms.(b).Harness.samples
                    ms.(k).Harness.samples,
                  base ))
              against
          in
          let ring = label = "ring" in
          Tablefmt.add_row t
            [|
              (if k = 0 then Technology.paper_name tech else "");
              label;
              fmt_meas ms.(k);
              (match delta with
              | Some (d, base) -> Harness.pp_delta d ^ " vs " ^ base
              | None -> "-");
              (match delta with
              | Some (d, _) when ring ->
                  Harness.budget ~pct:overhead_budget_pct d
              | _ -> "");
              (if ring then string_of_int recorded else "");
            |])
        stages)
    rows;
  {
    id = "Ablation A8";
    title =
      "Instrumentation overhead: tracing, supervision, metrics (Table 2 \
       hot-list search)";
    body = Tablefmt.render t;
    notes =
      [
        "bare = the op alone; site = the op in a span site compiled in, \
         tracer disabled (the 'zero when disabled' claim); ring = that \
         site recording into a 32K-slot ring with 1-in-32 span sampling, \
         events counted over every round; invoke = the bare op through \
         Manager.invoke on a healthy attached graft (one exception \
         barrier plus invocation bookkeeping) with the metrics registry \
         off, so each counter inc is one flag load and branch; metrics = \
         the same invocation with counters incrementing";
        "the VM technologies also carry their built-in dispatch-loop span \
         sites in every stage; stages run in interleaved GC-fenced rounds, \
         cells are outlier-rejected medians ±95% CI half-width, and each \
         delta is the median of round-paired deltas against the stage it \
         adds a layer to, with its own CI; a delta whose CI straddles \
         zero is noise";
        budget_note;
      ];
  }

(* A11: Graftgate's stateful grafts. The connection demux keeps
   per-connection packet counters in a 64-entry array graft map and
   scans the payload for a marker under a load-time trip-count
   certificate — the first graft in the suite whose state outlives an
   invocation and whose loop runs with no per-iteration fuel check on
   any tier. The hot-set tracker puts the *policy* in the kernel
   object: an LRU map evicts for it, so the graft is loop-free. *)
let ablation_gate scale =
  let protocol = Graft_kernel.Netpkt.proto_tcp in
  let marker = 0x42 in
  let rng = Prng.create 0xA11L in
  let traffic =
    Array.init 256 (fun i ->
        let payload = Bytes.make 32 '\000' in
        if i land 3 <> 0 then
          Bytes.set payload (16 + (i land 15)) (Char.chr marker);
        Graft_kernel.Netpkt.make ~protocol
          ~src_port:(Prng.int rng 4096)
          ~dst_port:80 ~payload ())
  in
  let techs =
    [
      Technology.Specialized_vm; Technology.Jit; Technology.Bytecode_opt;
      Technology.Bytecode_vm; Technology.Sfi_full; Technology.Ast_interp;
    ]
  in
  (* Verified before timed: every tier must classify the traffic (and
     leave the connection map) identically. *)
  let classify tech =
    let d = Runners.demux tech ~protocol ~marker in
    (Array.map d.Runners.demux traffic,
     Graft_kernel.Graftmap.entries d.Runners.d_conn)
  in
  let reference = classify Technology.Ast_interp in
  List.iter
    (fun tech ->
      if classify tech <> reference then
        failwith ("A11: " ^ Technology.name tech ^ " diverges on demux"))
    techs;
  let data =
    List.map
      (fun tech ->
        let d = Runners.demux tech ~protocol ~marker in
        let i = ref 0 in
        let op () =
          i := (!i + 1) land 255;
          ignore (d.Runners.demux traffic.(!i))
        in
        let touch =
          match tech with
          | Technology.Specialized_vm -> None (* inexpressible: no LRU *)
          | _ ->
              let h = Runners.hotset tech ~capacity:64 in
              let j = ref 0 in
              let op () =
                j := !j + 1;
                ignore (h.Runners.touch (!j land 255))
              in
              let m = time_op scale op in
              Some (m, words_per_op op)
        in
        (tech, time_op scale op, touch))
      techs
  in
  let base = med (match data with (_, m, _) :: _ -> m | [] -> assert false) in
  let t =
    Tablefmt.create
      [| "Technology"; "demux/pkt"; "vs filter VM"; "touch/op"; "words/touch" |]
  in
  List.iter
    (fun (tech, m, touch) ->
      let time, words =
        match touch with
        | Some (h, w) -> (fmt_meas h, Printf.sprintf "%.1f" w)
        | None -> ("n/a", "n/a")
      in
      Tablefmt.add_row t
        [| Technology.paper_name tech; fmt_meas m; fmt_norm (med m /. base); time; words |])
    data;
  {
    id = "Ablation A11";
    title = "Stateful grafts over graft maps (Graftgate: demux + hot set)";
    body = Tablefmt.render t;
    notes =
      [
        "demux: per-connection counters in a 64-entry array map keyed by \
         src port, marker scan certified to 16 trips at load — the \
         backward jump runs with no fuel check on any tier, and every \
         verifier re-derives the bound independently";
        "the filter VM's counted Jloop budget is the same certificate in \
         specialized clothing; its map opcodes are range-checked at load \
         where the key is static, per packet where it is not";
        "touch: hot-set tracking with eviction owned by the kernel's LRU \
         map object — inexpressible on the filter VM (no LRU), loop-free \
         everywhere else; 256 keys cycle through 64 slots, so every touch \
         evicts";
        "words/touch: minor words allocated per touch over 10,000 \
         touches, a count that does not depend on host speed";
      ];
  }
