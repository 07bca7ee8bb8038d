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

let runs_of = function Quick -> 5 | Full -> 10

(* Every timing below goes through the shared harness: interleaved
   GC-fenced rounds, outlier rejection, bootstrap CIs, auto-repetition
   until the CI converges. The scale picks the preset. *)
let harness_config = function Quick -> Harness.quick | Full -> Harness.full

(* Slow (interpreted, single-shot) ops: a fixed small round count
   instead of CI-driven repetition, or a reduced run would take
   minutes. *)
let slow_config ?(max_iters = 1) ~rounds scale =
  { (harness_config scale) with max_iters; min_rounds = rounds; max_rounds = rounds + 1 }

let time_op scale op = Harness.measure ~config:(harness_config scale) op

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
  let estimate = Graft_kernel.Upcall.estimate_from_signal_s in
  let t = Tablefmt.create [| "Platform"; "Signal handling time"; "Upcall estimate" |] in
  List.iter
    (fun (name, s) -> Tablefmt.add_row t [| name; fmt_time s; fmt_time (estimate s) |])
    Paperdata.table1_signal_s;
  Tablefmt.add_sep t;
  (* Medians: signal and IPC measurements are long-tailed on a busy
     host and the paper's per-run batching already averaged noise. *)
  Tablefmt.add_row t
    [|
      "host (measured)";
      Robust.pp_percall host.Signalbench.per_signal_s;
      fmt_time (Signalbench.upcall_estimate_s host);
    |];
  Tablefmt.add_row t
    [|
      "host (real upcall RTT)";
      "-";
      Robust.pp_percall upcall.Upcallbench.round_trip_s;
    |];
  let pct f = 100.0 *. f in
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
        Printf.sprintf
          "upcall estimate is %.0f%% of signal time (the paper's BSD/OS \
           measurement ran ~%.0f%% quicker than a signal)"
          (pct Graft_kernel.Upcall.signal_fraction)
          (pct (1.0 -. Graft_kernel.Upcall.signal_fraction));
        Printf.sprintf
          "the real-upcall row measures an actual forked server reached \
           over pipes (%d round trips): the paper's structure, built and \
           timed rather than estimated"
          upcall.Upcallbench.rounds;
      ];
  }

(* ------------------------------------------------------------------ *)
(* The row rule of the technology tables (2, 5 and 6).                 *)
(* ------------------------------------------------------------------ *)

type tech_timing = {
  tt_tech : Technology.t;
  meas : Harness.measurement;  (** at the measured size *)
  scaled_by : int;  (** full size / measured size; 1 when not extrapolated *)
  full_s : float;  (** per-op seconds at full size *)
}

(* The sizes a scaled table measures at, as (quick, full) per regime.
   Interpreters run reduced and extrapolate linearly (the paper did the
   same for Tcl). Every GEL tier, the JIT included, runs at [vm], so the
   JIT and bytecode-opt rows come from one size and their ratio from
   like measurements. *)
type sizes = {
  full : int;  (** the paper's size, every row's extrapolation target *)
  script : int * int;  (** the source interpreter *)
  vm : int * int;  (** the GEL tiers *)
  native_quick : int;  (** native code under [Quick] *)
}

let measured_size sizes scale tech =
  let pick (quick, full) = match scale with Quick -> quick | Full -> full in
  match Runners.regime tech with
  | Runners.Script -> pick sizes.script
  | Runners.Vm -> pick sizes.vm
  | _ -> pick (sizes.native_quick, sizes.full)

(* One row of a scaled table. [prepare size] builds the op at the
   technology's measured size and the check its result must pass; the
   check runs after the timing, before the row is trusted. The source
   interpreter is timed over 3 single-shot rounds (one of its ops takes
   seconds), every other technology over the scale's rounds in batches
   of up to [max_iters]. The median is extrapolated to [sizes.full]:
   it resists the occasional GC pause in large-buffer runs. *)
let scaled_row ?(max_iters = 1) sizes scale tech prepare =
  let size = measured_size sizes scale tech in
  let op, check = prepare size in
  let rounds, max_iters =
    match Runners.regime tech with
    | Runners.Script -> (3, 1)
    | _ -> (runs_of scale, max_iters)
  in
  let meas = Harness.measure ~config:(slow_config ~max_iters ~rounds scale) op in
  check ();
  {
    tt_tech = tech;
    meas;
    scaled_by = sizes.full / size;
    full_s =
      Breakeven.extrapolate ~measured_s:(med meas) ~measured_size:size
        ~full_size:sizes.full;
  }

let norm_cell ~base_s t_s = fmt_norm (Breakeven.normalized ~baseline_s:base_s ~t_s)

(* A technology table: per row its name, raw cell (the measurement, or
   the extrapolated full-size time and where it came from), the
   full-size time normalised to the C row's, then [extra]'s cells. *)
let tech_table ~raw ~extra_headers ~extra rows =
  let c = (List.find (fun d -> d.tt_tech = Technology.Unsafe_c) rows).full_s in
  let t =
    Tablefmt.create (Array.of_list ([ "Technology"; raw; "norm" ] @ extra_headers))
  in
  List.iter
    (fun d ->
      let raw =
        if d.scaled_by = 1 then fmt_meas d.meas
        else
          Printf.sprintf "%s (x%d from %s)" (fmt_time d.full_s) d.scaled_by
            (fmt_time (med d.meas))
      in
      Tablefmt.add_row t
        (Array.of_list
           ([ Technology.paper_name d.tt_tech; raw; norm_cell ~base_s:c d.full_s ]
           @ extra d)))
    rows;
  Tablefmt.render t

(* The ablations' table: labelled measurements, each normalised to the
   first row's (the C row in every ablation that uses it). *)
let vs_first_table (label, what) rows =
  let base_s = med (snd (List.hd rows)) in
  let t = Tablefmt.create [| label; what; "vs C" |] in
  List.iter
    (fun (name, m) -> Tablefmt.add_row t [| name; fmt_meas m; norm_cell ~base_s (med m) |])
    rows;
  Tablefmt.render t

(* ------------------------------------------------------------------ *)
(* Table 2: VM page eviction.                                          *)
(* ------------------------------------------------------------------ *)

(* The measured operation: search the 64-entry hot list for a page that
   is not on it (the common case — a hit occurs once per 781 faults). *)
let absent_page = 100_000

let contains_op tech =
  let rng = Prng.create 0x7AB2EL in
  let runner = Runners.evict ~rng tech ~capacity_nodes:128 () in
  runner.Runners.refresh ~hot:Paperdata.hot_list ~lru:[||];
  (* Defeat any possibility of the result being cached: alternate the
     probed page (both absent). *)
  let flip = ref false in
  fun () ->
    flip := not !flip;
    ignore (runner.Runners.contains (if !flip then absent_page else absent_page + 1))

(* Each technology's search is timed once per scale and process: Table
   2, Figure 1, A1 and A3 print the same measurement of the same fact,
   as the paper's Figure 1 reuses its Table 2. *)
let contains_timings : (scale * Technology.t, Harness.measurement) Hashtbl.t =
  Hashtbl.create 16

let measure_contains scale tech =
  match Hashtbl.find_opt contains_timings (scale, tech) with
  | Some m -> m
  | None ->
      let m = time_op scale (contains_op tech) in
      Hashtbl.replace contains_timings (scale, tech) m;
      m

let table2_data scale =
  List.map
    (fun tech ->
      let meas = measure_contains scale tech in
      { tt_tech = tech; meas; scaled_by = 1; full_s = med meas })
    table_techs

(* Break-even against a platform's page fault (Table 3), as Table 2's
   columns and Figure 1's lines give it. *)
let fault_be (p : Platform.profile) graft_s =
  Breakeven.break_even ~event_cost_s:p.Platform.fault_s ~graft_cost_s:graft_s

let solaris = Platform.find_paper "Solaris"

let table2 scale =
  let body =
    tech_table ~raw:"raw"
      ~extra_headers:
        (List.map (fun p -> "BE " ^ p.Platform.pname) Platform.paper_profiles
        @ [ "helps? (781)" ])
      ~extra:(fun d ->
        List.map (fun p -> fmt_breakeven (fault_be p d.full_s)) Platform.paper_profiles
        @ [
            (if
               Breakeven.worthwhile ~break_even:(fault_be solaris d.full_s)
                 ~save_period:Breakeven.paper_save_period
             then "yes"
             else "no");
          ])
      (table2_data scale)
  in
  {
    id = "Table 2";
    title = "VM Page Eviction (64-entry hot-list search)";
    body;
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

let md5_sizes =
  { full = 1024 * 1024; script = (2048, 16384); vm = (65536, 262144); native_quick = 262144 }

let table5_data scale =
  let rng = Prng.create 0x3D5DA7AL in
  List.map
    (fun tech ->
      (* Small calibrated batches, so each timed window is well above
         timer resolution and GC noise. *)
      scaled_row ~max_iters:64 md5_sizes scale tech (fun size ->
          let runner = Runners.md5 tech ~capacity:size in
          let data = Prng.bytes rng size in
          runner.Runners.load data;
          let expect = Graft_md5.Md5.to_hex (Graft_md5.Md5.digest_bytes data) in
          ( (fun () -> runner.Runners.compute size),
            fun () ->
              if runner.Runners.digest_hex () <> expect then
                failwith ("table5: wrong digest from " ^ Technology.name tech) )))
    table_techs

let table5 scale =
  let body =
    tech_table ~raw:"raw (1MB)"
      ~extra_headers:
        (List.map (fun p -> "MD5/disk " ^ p.Platform.pname) Platform.paper_profiles)
      ~extra:(fun d ->
        List.map
          (fun p ->
            fmt_norm
              (Breakeven.md5_disk_ratio ~compute_s:d.full_s
                 ~disk_s:(Platform.mb_access_s p)))
          Platform.paper_profiles)
      (table5_data scale)
  in
  {
    id = "Table 5";
    title = "MD5 Fingerprinting (1MB)";
    body;
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

let logdisk_config = Graft_kernel.Logdisk.paper_config
let logdisk_nblocks = logdisk_config.Graft_kernel.Logdisk.nblocks

let logdisk_sizes =
  { full = Paperdata.logdisk_writes; script = (1024, 8192); vm = (8192, 65536); native_quick = 32768 }

(* 80% of writes to 20% of blocks (paper section 5.6). *)
let skewed_workload n =
  let r = Prng.create 0x10D15CL in
  Array.init n (fun _ ->
      if Prng.float r < 0.8 then Prng.int r (logdisk_nblocks / 5)
      else (logdisk_nblocks / 5) + Prng.int r (logdisk_nblocks * 4 / 5))

let table6_data scale =
  List.map
    (fun tech ->
      scaled_row logdisk_sizes scale tech (fun writes ->
          let workload = skewed_workload writes in
          let policy = Runners.logdisk_policy tech ~nblocks:logdisk_nblocks in
          ( (fun () ->
              Array.iter
                (fun logical -> ignore (policy.Graft_kernel.Logdisk.map_write logical))
                workload),
            fun () ->
              (* The engine shadow-checks a fresh policy's mappings. *)
              let r =
                Graft_kernel.Logdisk.run logdisk_config
                  (Runners.logdisk_policy tech ~nblocks:logdisk_nblocks)
                  workload
              in
              if r.Graft_kernel.Logdisk.mapping_errors <> 0 then
                failwith ("table6: mapping errors from " ^ Technology.name tech) )))
    table_techs

(* The disk time of the full workload, log-structured and in place, on
   the engine's Solaris-era disk. Every policy writes the same blocks in
   the same segments — the technologies differ only in bookkeeping — so
   it is one figure, taken with the engine's reference policy. *)
let table6_io () =
  Graft_kernel.Logdisk.run logdisk_config
    (Graft_kernel.Logdisk.native_policy logdisk_config)
    (skewed_workload logdisk_sizes.full)

let table6 scale =
  let full = logdisk_sizes.full in
  let body =
    tech_table
      ~raw:(Printf.sprintf "raw (%d writes)" full)
      ~extra_headers:[ "per block" ]
      ~extra:(fun d -> [ fmt_time (Breakeven.per_block_s ~total_s:d.full_s ~blocks:full) ])
      (table6_data scale)
  in
  let io = table6_io () in
  {
    id = "Table 6";
    title = "Logical Disk (80/20-skewed writes, 1GB disk, 64KB segments)";
    body;
    notes =
      [
        "per block = bookkeeping overhead one write must recoup; paper \
         (Solaris): C 7.2us, Modula-3 11.1us, Omniware 8.4us, Java 94us";
        Printf.sprintf
          "disk I/O for all %d writes on the Solaris-era disk model, the \
           same for every technology: LSD IO %s, in-place IO %s — batching \
           wins by an order of magnitude, dwarfing every technology's \
           bookkeeping cost"
          io.Graft_kernel.Logdisk.writes
          (fmt_time io.Graft_kernel.Logdisk.lsd_io_s)
          (fmt_time io.Graft_kernel.Logdisk.inplace_io_s);
        "mappings shadow-verified for every technology before timing";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 1: break-even vs upcall time.                                *)
(* ------------------------------------------------------------------ *)

(* Figure 1's notes. An in-kernel technology's upcall budget is its
   median minus C's ({!Breakeven.competitive_upcall_s}); it exists only
   when positive, since a median at or below C's leaves no room for an
   upcall at the timing's precision. The host's round trip is priced
   against the largest budget, and only a positive one. *)
let figure1_notes ~native_s ~in_kernel ~upcall_rtt_s =
  let budgets =
    List.map
      (fun (name, s) ->
        (name, s, Breakeven.competitive_upcall_s ~in_kernel_s:s ~native_graft_s:native_s))
      in_kernel
  in
  let positive = List.filter (fun (_, _, b) -> b > 0.0) budgets in
  let budget_note =
    match positive with
    | [] -> []
    | l ->
        [
          Printf.sprintf "an upcall must cost %s (paper: ~5us, 'difficult to achieve')"
            (String.concat " and "
               (List.map
                  (fun (name, _, b) ->
                    Printf.sprintf "under %s to match in-kernel %s" (fmt_time b) name)
                  l));
        ]
  in
  let no_budget_notes =
    List.filter_map
      (fun (name, s, b) ->
        if b > 0.0 then None
        else
          Some
            (Printf.sprintf
               "%s's median (%s) does not exceed C's (%s), so no upcall \
                budget exists for it at this precision"
               name (fmt_time s) (fmt_time native_s)))
      budgets
  in
  let largest =
    List.fold_left
      (fun acc (name, _, b) ->
        match acc with Some (_, b') when b' >= b -> acc | _ -> Some (name, b))
      None positive
  in
  let rtt_note =
    match (upcall_rtt_s, largest) with
    | Some rtt, Some (name, budget) ->
        [
          Printf.sprintf
            "the host's real upcall round trip (forked server over pipes) is \
             %s — %.0fx over %s's budget, so user-level servers remain \
             uncompetitive for this graft"
            (fmt_time rtt) (rtt /. budget) name;
        ]
    | Some rtt, None ->
        [
          Printf.sprintf
            "the host's real upcall round trip (forked server over pipes) is %s"
            (fmt_time rtt);
        ]
    | None, _ -> []
  in
  budget_note @ no_budget_notes @ rtt_note

let figure1 scale =
  let event_cost_s = solaris.Platform.fault_s in
  let be = fault_be solaris in
  (* The native graft and the two compiled safe technologies, as Table 2
     timed them. *)
  let native = med (measure_contains scale Technology.Unsafe_c) in
  let m3 = med (measure_contains scale Technology.Safe_lang) in
  let sfi = med (measure_contains scale Technology.Sfi_write_jump) in
  let upcalls = List.init 51 (fun i -> float_of_int i *. 1e-6) in
  let curve =
    Breakeven.upcall_sweep ~event_cost_s ~native_graft_s:native
      ~upcall_times_s:upcalls
  in
  let to_points l = Array.of_list (List.map (fun (u, b) -> (u *. 1e6, b)) l) in
  let in_kernel glyph name s =
    {
      Asciiplot.label = Printf.sprintf "%s in kernel (BE %s)" name (fmt_breakeven (be s));
      points = to_points [ (0.0, be s); (50e-6, be s) ];
      glyph;
    }
  in
  let plot =
    Asciiplot.render ~width:64 ~height:20
      ~title:"Figure 1: Break-even vs upcall time (eviction graft, Solaris fault 6.9ms)"
      ~xlabel:"upcall time (us)" ~ylabel:"break-even (invocations)" ~logy:true
      [
        { Asciiplot.label = "user-level server"; points = to_points curve; glyph = '*' };
        in_kernel 'm' "Modula-3" m3;
        in_kernel 's' "SFI" sfi;
      ]
  in
  let upcall_rtt_s =
    match Upcallbench.measure ~rounds:500 () with
    | r -> Some r.Upcallbench.round_trip_s.Robust.median
    | exception _ -> None
  in
  {
    id = "Figure 1";
    title = "Break-Even vs Upcall Time";
    body = plot;
    notes =
      figure1_notes ~native_s:native
        ~in_kernel:[ ("Modula-3", m3); ("SFI", sfi) ]
        ~upcall_rtt_s;
  }

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let contains_rows scale =
  List.map (fun (name, tech) -> (name, measure_contains scale tech))

(* A1: explicit NIL checks vs trap-based (the paper's Linux anomaly). *)
let ablation_nil scale =
  {
    id = "Ablation A1";
    title = "NIL-check strategy (paper Table 2's Linux anomaly)";
    body =
      vs_first_table ("Regime", "raw")
        (contains_rows scale
           [
             ("C (unsafe)", Technology.Unsafe_c);
             ("Modula-3, trap-based NIL (Solaris/Alpha)", Technology.Safe_lang);
             ("Modula-3, explicit NIL checks (Linux)", Technology.Safe_lang_nil);
           ]);
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
    ( Technology.paper_name tech,
      Harness.measure
        ~config:(slow_config ~rounds:(runs_of scale) scale)
        (fun () -> runner.Runners.compute size) )
  in
  {
    id = "Ablation A2";
    title = "SFI protection level (write+jump vs full read+write)";
    body =
      vs_first_table ("Protection", "MD5 raw")
        (List.map row [ Technology.Unsafe_c; Technology.Sfi_write_jump; Technology.Sfi_full ]);
    notes =
      [
        Printf.sprintf "MD5 over %d bytes; the paper's Omniware beta had no \
                        read protection, which 'gives it a performance \
                        advantage'; full protection masks loads too" size;
      ];
  }

(* A3: interpreter designs. *)
let ablation_interp scale =
  {
    id = "Ablation A3";
    title = "Interpreter design: bytecode vs AST walk vs source re-parse";
    body =
      vs_first_table ("Interpreter", "hot-list search")
        (contains_rows scale
           (List.map
              (fun tech -> (Technology.paper_name tech, tech))
              [
                Technology.Unsafe_c; Technology.Bytecode_vm; Technology.Ast_interp;
                Technology.Source_interp;
              ]));
    notes =
      [
        "the paper's Java/Tcl gap (31x vs ~8900x on Solaris) is an \
         interpreter-design gap, not a language gap: the AST walk lands \
         beside the bytecode VM, and both far below source re-parse";
      ];
  }

(* A4: SFI instrumentation cost in executed instructions (regvm), on
   a read-heavy graft (hot-list search) and a store-heavy one (64
   logical-disk mapped writes). *)
let ablation_regvm () =
  let search_count ?elide protection =
    let refresh, contains =
      Runners.evict_regvm ~rng:(Prng.create 0xA4L) ?elide ~protection
        ~capacity_nodes:128 ()
    in
    refresh ~hot:Paperdata.hot_list ~lru:[||];
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
  let mb = md5_sizes.full in
  let native_md5_1mb =
    let runner = Runners.md5 Technology.Unsafe_c ~capacity:mb in
    let data = Prng.bytes (Prng.create 1L) mb in
    runner.Runners.load data;
    med
      (Harness.measure ~config:(slow_config ~rounds:3 Quick) (fun () ->
           runner.Runners.compute mb))
  in
  let t =
    Tablefmt.create
      [| "Chunk"; "Upcalls/MB"; "Boundary cost (50us upcall)"; "vs compute" |]
  in
  List.iter
    (fun chunk ->
      let upcalls = mb / chunk in
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
        (Technology.paper_name tech, time_op scale op))
      techs
  in
  let matches =
    let accepts =
      Runners.packet_filter Technology.Unsafe_c
        ~protocol:Graft_kernel.Netpkt.proto_udp ~port:53
    in
    Array.fold_left (fun acc p -> if accepts p then acc + 1 else acc) 0 traffic
  in
  {
    id = "Ablation A6";
    title = "Specialized vs general-purpose extension language (packet demux)";
    body = vs_first_table ("Technology", "per packet") data;
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
  let hot = Paperdata.hot_list in
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
  {
    id = "Ablation A7";
    title = "HiPEC-style specialized policy language (full victim selection)";
    body =
      vs_first_table ("Mechanism", "victim selection")
        (List.map (fun (name, m, _) -> (name, m)) rows);
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
  T.disable ();
  let rows =
    Graft_metrics.with_enabled false @@ fun () ->
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
          T.span_end ~arg:0 T.App "contains" tok
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
   scans the payload for a marker under a trip-count bound each
   verifier derives at load — the first graft in the suite whose state outlives an
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
        [| Technology.paper_name tech; fmt_meas m; norm_cell ~base_s:base (med m); time; words |])
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
         verifier derives the bound from its own code";
        "the filter VM's counted Jloop budget is the same bound in \
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
