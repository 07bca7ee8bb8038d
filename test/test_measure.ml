(* Tests for graft_measure: real signal, disk, and fault measurements
   plus platform profiles. These assert sanity (positive, plausible
   magnitudes), not exact values — they run on arbitrary hosts. *)

open Graft_measure
module Robust = Graft_stats.Robust

let check_bool = Alcotest.(check bool)

(* Every measurement now returns a Robust.estimate; its CI must be an
   interval containing the reported median. *)
let check_estimate label (e : Robust.estimate) =
  check_bool (label ^ " CI ordered") true
    (e.Robust.ci95_lo <= e.Robust.median && e.Robust.median <= e.Robust.ci95_hi)

let check_signalbench (r : Signalbench.result) =
  let med = r.Signalbench.per_signal_s.Robust.median in
  check_bool "group size" true (r.Signalbench.group_size = 20);
  check_estimate "per-signal" r.Signalbench.per_signal_s;
  (* Signal handling on any machine: over 100ns, under 10ms. *)
  check_bool "plausible magnitude" true (med > 1e-7 && med < 1e-2);
  (* [med] is the handled group's time per signal minus the ignored
     group's, and the handled path pays two sigprocmask calls the
     ignored one does not: those keep [med] at a few microseconds, over
     a twentieth of a post. Delivery alone (a baseline making the same
     two mask changes) read 0-2us against a ~22us post on a 2-core VM
     and failed this bound, so it tests the host's post-to-delivery
     ratio more than the measurement. *)
  check_bool "posting cheaper than handling" true
    (r.Signalbench.post_only_s < med *. 20.0);
  let upcall = Signalbench.upcall_estimate_s r in
  check_bool "upcall is 60%" true (Float.abs (upcall -. (med *. 0.6)) < 1e-12)

let test_signalbench () = check_signalbench (Signalbench.measure ~rounds:30 ())

(* Many short measurements in a row, each under an alarm. A child
   that can miss a signal (one landing between the runtime's
   pending-signal check and the wait) leaves the parent waiting for
   its acknowledgement forever, and host drift between separate
   handled and baseline phases can flip the paired difference to a
   zero median: the alarm turns the first into a failure, the bounds
   catch the second. *)
let test_signalbench_repeated () =
  let fired = ref false in
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> fired := true))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      for i = 1 to 50 do
        ignore (Unix.alarm 10);
        (match Signalbench.measure ~rounds:30 () with
        | r -> check_signalbench r
        | exception e ->
            Alcotest.failf "measurement %d raised %s (alarm fired: %b)" i
              (Printexc.to_string e) !fired);
        ignore (Unix.alarm 0);
        check_bool (Printf.sprintf "measurement %d within its alarm" i) false
          !fired
      done)

let test_diskbench () =
  let r = Diskbench.measure ~runs:2 ~file_bytes:(2 * 1024 * 1024) () in
  let bw = r.Diskbench.bandwidth_bytes_per_s.Robust.median in
  check_estimate "bandwidth" r.Diskbench.bandwidth_bytes_per_s;
  (* Any disk from 1995 floppy to NVMe: 100KB/s .. 100GB/s. *)
  check_bool "plausible bandwidth" true (bw > 1e5 && bw < 1e11);
  let t = Diskbench.access_time_s r (1024 * 1024) in
  check_bool "access time positive" true (t > 0.0)

let test_faultbench () =
  let r = Faultbench.measure ~runs:3 () in
  let per = r.Faultbench.per_fault_s.Robust.median in
  check_estimate "per-fault" r.Faultbench.per_fault_s;
  (* Page-cache fault: over 10ns, under 1ms. *)
  check_bool "plausible fault time" true (per > 1e-10 && per < 1e-3)

let test_paper_profiles () =
  Alcotest.(check int) "four platforms" 4 (List.length Platform.paper_profiles);
  (* Published 1995 numbers are constants, never host measurements. *)
  List.iter
    (fun p -> check_bool (p.Platform.pname ^ " not measured") false
        p.Platform.measured)
    Platform.paper_profiles;
  let solaris = Platform.find_paper "Solaris" in
  check_bool "Solaris signal" true
    (Float.abs (solaris.Platform.signal_s -. 40.3e-6) < 1e-9);
  check_bool "Solaris fault" true
    (Float.abs (solaris.Platform.fault_s -. 6.9e-3) < 1e-9);
  (* Table 4: Solaris 1MB access time 320ms. *)
  let t = Platform.mb_access_s solaris in
  check_bool "1MB time near 320ms" true (t > 0.31 && t < 0.34);
  let alpha = Platform.find_paper "Alpha" in
  Alcotest.(check int) "Alpha read-ahead" 16 alpha.Platform.pages_per_fault

let test_upcall_estimates () =
  let linux = Platform.find_paper "Linux" in
  let u = Platform.upcall_s linux in
  check_bool "upcall < signal" true (u < linux.Platform.signal_s);
  check_bool "upcall = 60%" true
    (Float.abs (u -. (55.9e-6 *. 0.6)) < 1e-12)

let test_upcallbench () =
  let r = Upcallbench.measure ~rounds:200 () in
  let rtt = r.Upcallbench.round_trip_s.Robust.median in
  check_estimate "round trip" r.Upcallbench.round_trip_s;
  (* A pipe round trip between processes: 200ns .. 10ms on any host. *)
  check_bool "plausible rtt" true (rtt > 2e-7 && rtt < 1e-2);
  check_bool "switch is half" true
    (Float.abs (Upcallbench.switch_s r -. (rtt /. 2.0)) < 1e-12)

let test_host_profile () =
  let host = Platform.measure_host ~signal_rounds:20 ~disk_runs:1 ~fault_pages:4096 () in
  check_bool "measured flag" true host.Platform.measured;
  (* measure_host records a platform_measured gauge per component. *)
  List.iter
    (fun comp ->
      let g = Graft_metrics.gauge "platform_measured" [ ("component", comp) ] in
      check_bool (comp ^ " gauge is 1") true (Graft_metrics.gauge_value g = 1.0))
    [ "signal"; "fault"; "disk" ];
  check_bool "signal positive" true (host.Platform.signal_s > 0.0);
  check_bool "fault positive" true (host.Platform.fault_s > 0.0);
  check_bool "disk positive" true (host.Platform.disk_bytes_per_s > 0.0)

let () =
  Alcotest.run "graft_measure"
    [
      ( "measure",
        [
          Alcotest.test_case "signalbench" `Quick test_signalbench;
          Alcotest.test_case "signalbench, 50 in a row" `Quick
            test_signalbench_repeated;
          Alcotest.test_case "diskbench" `Quick test_diskbench;
          Alcotest.test_case "faultbench" `Quick test_faultbench;
          Alcotest.test_case "upcallbench" `Quick test_upcallbench;
          Alcotest.test_case "paper profiles" `Quick test_paper_profiles;
          Alcotest.test_case "upcall estimates" `Quick test_upcall_estimates;
          Alcotest.test_case "host profile" `Quick test_host_profile;
        ] );
    ]
