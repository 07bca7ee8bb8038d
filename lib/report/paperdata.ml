(** The paper's published numbers (Tables 1–6), kept verbatim so every
    regenerated table can print the 1996 figures beside ours and
    EXPERIMENTS.md can record shape agreement. Times in seconds. *)

type tech_row = {
  platform : string;
  c_s : float option;
  java_s : float option;
  m3_s : float option;
  omniware_s : float option;
}

(* Table 1: per-signal handling time. *)
let table1_signal_s =
  [ ("Alpha", 19.5e-6); ("HP-UX", 25.8e-6); ("Linux", 55.9e-6); ("Solaris", 40.3e-6) ]

(* Table 2: 64-entry hot-list search (raw). *)
let table2_search =
  [
    { platform = "Alpha"; c_s = Some 2.9e-6; java_s = None; m3_s = Some 3.2e-6; omniware_s = None };
    { platform = "HP-UX"; c_s = Some 6.0e-6; java_s = Some 159e-6; m3_s = Some 6.8e-6; omniware_s = None };
    { platform = "Linux"; c_s = Some 3.7e-6; java_s = Some 237e-6; m3_s = Some 9.1e-6; omniware_s = None };
    { platform = "Solaris"; c_s = Some 4.5e-6; java_s = Some 141e-6; m3_s = Some 6.3e-6; omniware_s = Some 6.3e-6 };
  ]

(* The 64-entry hot list Table 2 searches (pages 0, 3, ..., 189), the
   one the hot-list ablations, the tier bench and the trace scenario
   use too. *)
let hot_list = Array.init 64 (fun i -> 3 * i)

(* The paper's Tcl measurement for the same search (Solaris). *)
let table2_tcl_solaris_s = 40e-3

(* Table 3: page fault time and pages per fault. *)
let table3_fault =
  [ ("Alpha", 25.1e-3, 16); ("HP-UX", 17.9e-3, 4); ("Linux", 4.7e-3, 1); ("Solaris", 6.9e-3, 1) ]

(* Table 4: write bandwidth (bytes/s) and 1MB access time. *)
let table4_disk =
  [
    ("Alpha", 4364.0 *. 1024.0, 0.235); ("HP-UX", 1855.0 *. 1024.0, 0.552);
    ("Linux", 1694.0 *. 1024.0, 0.604); ("Solaris", 3126.0 *. 1024.0, 0.320);
  ]

(* Table 5: MD5 of 1MB (raw). *)
let table5_md5 =
  [
    { platform = "Alpha"; c_s = Some 0.159; java_s = None; m3_s = Some 0.207; omniware_s = None };
    { platform = "HP-UX"; c_s = Some 0.239; java_s = Some 23.987; m3_s = Some 0.352; omniware_s = None };
    { platform = "Linux"; c_s = Some 0.202; java_s = Some 22.887; m3_s = Some 0.387; omniware_s = None };
    { platform = "Solaris"; c_s = Some 0.146; java_s = Some 10.368; m3_s = Some 0.294; omniware_s = Some 0.219 };
  ]

(* The paper's Tcl MD5 on Solaris: ~50 minutes for 1MB. *)
let table5_tcl_solaris_s = 3000.0

(* Table 6: Logical Disk, 262,144 writes (raw). *)
let table6_logdisk =
  [
    { platform = "Alpha"; c_s = Some 0.74; java_s = None; m3_s = Some 1.3; omniware_s = None };
    { platform = "HP-UX"; c_s = Some 1.3; java_s = Some 32.2; m3_s = Some 2.1; omniware_s = None };
    { platform = "Linux"; c_s = Some 1.3; java_s = Some 46.5; m3_s = Some 1.7; omniware_s = None };
    { platform = "Solaris"; c_s = Some 1.9; java_s = Some 24.6; m3_s = Some 2.9; omniware_s = Some 2.2 };
  ]

let logdisk_writes = 262144

(** Normalized factor (vs C) from a paper row, when both present. *)
let normalized c t =
  match (c, t) with Some c, Some t -> Some (t /. c) | _ -> None
