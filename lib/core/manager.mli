(** The graft manager: the kernel-side registry that loads grafts,
    attaches them to hook points, meters their faults, and supervises
    misbehaving ones — the machinery that makes every technology except
    unsafe C survivable (paper sections 1 and 4).

    Supervision policy (Graftjail): every invocation runs under an
    exception barrier. A graft that exhausts its per-window fault
    budget earns a strike and is disabled; the kernel falls back to
    its default policy while an exponentially growing backoff elapses,
    then re-enables the graft with a fresh budget. After [max_strikes]
    strikes the graft is quarantined permanently. If an {e unsafe}
    graft faults, the manager raises {!Kernel_panic}: with no
    protection there is nothing to contain the failure, which is the
    reliability argument the paper opens with.

    The manager owns the kernel's module table ({!Runners.modules}):
    each distinct GEL module its grafts use is loaded and verified
    once, and every graft runs its own instance of it, with its own
    memory, maps and host closures. The table is empty at {!create}
    and lives as long as the manager, so nothing is shared between
    managers (one per serve shard, one per benchmark set-up). *)

exception Kernel_panic of string

type policy = {
  max_faults : int;  (** faults tolerated per enabled window *)
  backoff_base : int;  (** fallback invocations after the first strike *)
  backoff_factor : int;  (** backoff multiplier per further strike *)
  max_strikes : int;  (** strikes before permanent quarantine *)
}

(** 3 faults per window, backoff 8 doubling per strike, 3 strikes. *)
val default_policy : policy

type state =
  | Loaded
  | Attached
  | Disabled of Graft_mem.Fault.t
      (** backoff running; re-enabled when it ends *)
  | Quarantined of Graft_mem.Fault.t  (** permanent: struck out *)

type graft = {
  g_name : string;
  tech : Technology.t;
  structure : Taxonomy.structure;
  motivation : Taxonomy.motivation;
  policy : policy;
  mutable state : state;
  mutable invocations : int;
  mutable faults : int;  (** faults in the current enabled window *)
  mutable total_faults : int;
  mutable strikes : int;
      (** mirror of [jail]'s count, kept for cheap single-domain reads *)
  mutable cooldown : int;  (** fallback invocations left while disabled *)
  mutable fallbacks : int;  (** invocations answered by the kernel default *)
  jail : Strikes.t;
      (** the lock-free strike ledger: strikes are claimed atomically
          and the quarantine transition is won by exactly one caller *)
  m_invocations : Graft_metrics.counter;  (** Graftmeter series, per graft *)
  m_faults : Graft_metrics.counter;
  m_fallbacks : Graft_metrics.counter;
  m_quarantines : Graft_metrics.counter;
}

type t

(** A manager with no grafts and an empty module table. *)
val create : unit -> t

(** The kernel's module table: pass it to the {!Runners} builders so
    each distinct module loads once. *)
val modules : t -> Runners.modules

(** Register a graft under [policy] (default {!default_policy}).
    Raises [Invalid_argument] on duplicate names or a policy with any
    field < 1. *)
val register :
  t ->
  name:string ->
  tech:Technology.t ->
  structure:Taxonomy.structure ->
  motivation:Taxonomy.motivation ->
  ?policy:policy ->
  unit ->
  graft

val find : t -> string -> graft option
val grafts : t -> graft list
val max_faults : graft -> int
val state_name : state -> string

(** Numeric encoding for the state gauge: 0 loaded, 1 attached,
    2 disabled, 3 quarantined. *)
val state_code : state -> int

(** Publish every registered graft's supervision state and strike
    count as [graftkit_manager_state]/[graftkit_manager_strikes]
    gauges — called at snapshot time so [graftkit serve] time series
    capture disable/re-enable/quarantine transitions. *)
val publish_state_gauges : t -> unit

(** Supervision state-machine invariants, checked by property tests:
    budgets and strikes within policy bounds, cooldown positive iff
    disabled, quarantine exactly at [max_strikes]. *)
val invariants_ok : graft -> bool

(** Run one invocation of [g] under the supervision barrier: faults
    (including a native divide trap) are recorded against the budget
    and answered with [None], telling the caller to use the kernel's
    default path. Raises {!Kernel_panic} when an unprotected graft
    faults. *)
val invoke : graft -> (unit -> 'a) -> 'a option

(** The kernel's integrity checker found memory corruption
    attributable to [g] — only an unprotected graft can cause this,
    and it is unconditionally fatal. Raises {!Kernel_panic}. *)
val kernel_corruption : graft -> detail:string -> 'a

(** Attach an eviction graft to a VM subsystem. [hot_pages] supplies
    the application's current hot list at each eviction; the kernel
    exports it and its LRU chain into the graft's window, asks the
    graft to choose, and falls back to its own candidate whenever the
    graft is disabled or faults. *)
val attach_evict :
  t ->
  graft_name:string ->
  Graft_kernel.Vmsys.t ->
  Runners.evict ->
  hot_pages:(unit -> int array) ->
  unit

(** Attach an MD5 runner as a stream filter; data is staged and
    fingerprinted at [finish]. Returns the filter and a digest query
    ([None] until finished or when the graft was disabled). *)
val attach_md5_filter :
  t ->
  graft_name:string ->
  Runners.md5 ->
  capacity:int ->
  Graft_kernel.Streams.filter * (unit -> string option)

(** Wrap a logical-disk policy so its faults are metered; a disabled
    policy degrades to identity (in-place) mapping. *)
val attach_logdisk :
  t ->
  graft_name:string ->
  Graft_kernel.Logdisk.policy ->
  Graft_kernel.Logdisk.policy
