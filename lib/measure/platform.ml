(** Platform profiles: the paper's four 1995 machines (Tables 1, 3, 4
    as published) plus a profile measured on the current host.

    Break-even computations need three event costs — signal/upcall
    time, page-fault time, and disk bandwidth. For the paper platforms
    these are the published numbers; for the host they are measured by
    {!Signalbench}, {!Faultbench} and {!Diskbench}. *)

type profile = {
  pname : string;
  signal_s : float;  (** Table 1: per-signal handling time *)
  fault_s : float;  (** Table 3: page fault time *)
  pages_per_fault : int;  (** Table 3: read-ahead *)
  disk_bytes_per_s : float;  (** Table 4: write bandwidth *)
  measured : bool;
}

let kb = 1024.0

let paper_profiles =
  [
    {
      pname = "Alpha";
      signal_s = 19.5e-6;
      fault_s = 25.1e-3;
      pages_per_fault = 16;
      disk_bytes_per_s = 4364.0 *. kb;
      measured = false;
    };
    {
      pname = "HP-UX";
      signal_s = 25.8e-6;
      fault_s = 17.9e-3;
      pages_per_fault = 4;
      disk_bytes_per_s = 1855.0 *. kb;
      measured = false;
    };
    {
      pname = "Linux";
      signal_s = 55.9e-6;
      fault_s = 4.7e-3;
      pages_per_fault = 1;
      disk_bytes_per_s = 1694.0 *. kb;
      measured = false;
    };
    {
      pname = "Solaris";
      signal_s = 40.3e-6;
      fault_s = 6.9e-3;
      pages_per_fault = 1;
      disk_bytes_per_s = 3126.0 *. kb;
      measured = false;
    };
  ]

let find_paper name =
  List.find (fun p -> p.pname = name) paper_profiles

(* A fallback constant is a number the report layer will happily print
   next to measured ones, so it must never be silent: each component
   records a [platform_measured{component=...}] gauge (1 = measured,
   0 = assumed) and a failed measurement warns on stderr. *)
let record_component name ok =
  Graft_metrics.set
    (Graft_metrics.gauge "platform_measured"
       ~help:"1 when the host component was measured, 0 when a fallback constant is in use"
       [ ("component", name) ])
    (if ok then 1.0 else 0.0);
  if not ok then
    Printf.eprintf
      "graftkit: warning: %s measurement failed; using a fallback constant\n%!"
      name

(** Measure the host. Each component can be skipped (e.g. in restricted
    environments) and falls back to a conservative constant; the
    profile claims [measured = true] only when every component was
    actually measured. *)
let measure_host ?(signal_rounds = 100) ?(disk_runs = 3) ?(fault_pages = 1024)
    () =
  let signal_s, signal_ok =
    match Signalbench.measure ~rounds:signal_rounds () with
    | r -> (r.Signalbench.per_signal_s.Graft_stats.Robust.median, true)
    | exception _ -> (10e-6, false)
  in
  record_component "signal" signal_ok;
  let fault_s, fault_ok =
    match Faultbench.measure ~pages:fault_pages ~runs:5 () with
    | r -> (r.Faultbench.per_fault_s.Graft_stats.Robust.median, true)
    | exception _ -> (1e-6, false)
  in
  record_component "fault" fault_ok;
  let disk_bytes_per_s, disk_ok =
    match Diskbench.measure ~runs:disk_runs () with
    | r -> (r.Diskbench.bandwidth_bytes_per_s.Graft_stats.Robust.median, true)
    | exception _ -> (500e6, false)
  in
  record_component "disk" disk_ok;
  {
    pname = "host";
    signal_s;
    fault_s;
    pages_per_fault = 1;
    disk_bytes_per_s;
    measured = signal_ok && fault_ok && disk_ok;
  }

(** Upcall estimate (the paper's: ~40% quicker than a signal). *)
let upcall_s p = Graft_kernel.Upcall.estimate_from_signal_s p.signal_s

(** 1MB access time at the profile's disk bandwidth (Table 4). *)
let mb_access_s p = (1024.0 *. kb) /. p.disk_bytes_per_s
