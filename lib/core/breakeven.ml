(** The paper's break-even analysis (sections 5.4–5.6, Figure 1).

    A graft is worthwhile when the cost of running it on every event is
    repaid by the events it saves. For the eviction graft: dividing the
    page-fault time by the per-invocation graft time gives the number
    of invocations one saved fault pays for; the model application
    saves a fault once every 781 invocations, so technologies whose
    break-even point falls below 781 help and the rest hurt. *)

(** Once every how many invocations the paper's TPC-B model application
    saves an eviction: 50,000 data pages / 64 hot entries ≈ 781. *)
let paper_save_period = 781.0

(** [break_even ~event_cost_s ~graft_cost_s] is how many graft runs one
    saved event pays for. *)
let break_even ~event_cost_s ~graft_cost_s =
  if graft_cost_s <= 0.0 then infinity else event_cost_s /. graft_cost_s

(** Normalization against the unprotected-C baseline (the "normalized"
    rows of Tables 2, 5 and 6). *)
let normalized ~baseline_s ~t_s =
  if baseline_s <= 0.0 then nan else t_s /. baseline_s

(** A graft helps iff its break-even point exceeds the save period:
    running it [save_period] times costs less than one saved event. *)
let worthwhile ~break_even ~save_period = break_even > save_period

(** The user-level-server cost of one graft invocation: the upcall
    round trip plus the native execution of the handler. *)
let upcall_invocation_s ~upcall_s ~native_graft_s = upcall_s +. native_graft_s

(** Figure 1's curve: break-even point of the eviction graft in a
    user-level server, as a function of upcall time. *)
let upcall_sweep ~event_cost_s ~native_graft_s ~upcall_times_s =
  List.map
    (fun u ->
      ( u,
        break_even ~event_cost_s
          ~graft_cost_s:(upcall_invocation_s ~upcall_s:u ~native_graft_s) ))
    upcall_times_s

(** The upcall time below which a user-level server beats an in-kernel
    technology whose graft costs [in_kernel_s] (where Figure 1's curve
    crosses the technology's horizontal line): [u] such that
    [u + native_graft_s = in_kernel_s]. *)
let competitive_upcall_s ~in_kernel_s ~native_graft_s =
  in_kernel_s -. native_graft_s

(** Table 5's "MD5/disk" row: compute time over disk transfer time for
    the same data; below 1.0 the fingerprint hides inside the I/O. *)
let md5_disk_ratio ~compute_s ~disk_s = if disk_s <= 0.0 then nan else compute_s /. disk_s

(** Table 6's "per block" row. *)
let per_block_s ~total_s ~blocks =
  if blocks <= 0 then nan else total_s /. float_of_int blocks

(** Linear extrapolation for interpreted technologies measured at a
    reduced size (documented in DESIGN.md section 9): work is linear in
    bytes/iterations for all three grafts. *)
let extrapolate ~measured_s ~measured_size ~full_size =
  measured_s *. (float_of_int full_size /. float_of_int measured_size)
