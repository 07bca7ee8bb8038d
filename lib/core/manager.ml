(** The graft manager: the kernel-side registry that loads grafts,
    attaches them to hook points, meters their faults, and supervises
    misbehaving ones — the machinery that makes every technology except
    unsafe C survivable (paper sections 1 and 4).

    The manager owns the kernel's module table ({!Runners.modules}):
    each distinct GEL module its grafts use is loaded and verified
    once, and every graft runs its own instance of it. The table is
    empty at {!create} and lives as long as the manager.

    Supervision policy (Graftjail): every invocation runs under an
    exception barrier. A graft that exhausts its per-window fault
    budget earns a {e strike} and is disabled; the kernel falls back to
    its default policy while an exponentially growing backoff elapses,
    then re-enables the graft with a fresh budget. After [max_strikes]
    strikes the graft is quarantined permanently. If an {e unsafe}
    graft faults, the manager raises {!Kernel_panic}: with no
    protection there is nothing to contain the failure, which is
    precisely the reliability argument the paper opens with. *)

open Graft_mem

exception Kernel_panic of string

type policy = {
  max_faults : int;  (** faults tolerated per enabled window *)
  backoff_base : int;  (** fallback invocations after the first strike *)
  backoff_factor : int;  (** backoff multiplier per further strike *)
  max_strikes : int;  (** strikes before permanent quarantine *)
}

let default_policy =
  { max_faults = 3; backoff_base = 8; backoff_factor = 2; max_strikes = 3 }

let check_policy p =
  if
    p.max_faults < 1 || p.backoff_base < 1 || p.backoff_factor < 1
    || p.max_strikes < 1
  then invalid_arg "Manager: supervision policy fields must be >= 1"

type state =
  | Loaded
  | Attached
  | Disabled of Fault.t  (** backoff running; re-enabled when it ends *)
  | Quarantined of Fault.t  (** permanent: struck out *)

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

type t = {
  grafts : (string, graft) Hashtbl.t;
  modules : Runners.modules;
      (** every GEL module this kernel loaded, each once *)
}

let create () =
  { grafts = Hashtbl.create 8; modules = Runners.create_modules () }

let modules t = t.modules

let register t ~name ~tech ~structure ~motivation ?(policy = default_policy)
    () =
  if Hashtbl.mem t.grafts name then
    invalid_arg (Printf.sprintf "Manager.register: graft %s already exists" name);
  check_policy policy;
  let labels = [ ("graft", name) ] in
  let g =
    {
      g_name = name;
      tech;
      structure;
      motivation;
      policy;
      state = Loaded;
      invocations = 0;
      faults = 0;
      total_faults = 0;
      strikes = 0;
      cooldown = 0;
      fallbacks = 0;
      jail = Strikes.create ~max_strikes:policy.max_strikes;
      m_invocations =
        Graft_metrics.counter "graftkit_manager_invocations"
          ~help:"Graft invocations run under the supervision barrier" labels;
      m_faults =
        Graft_metrics.counter "graftkit_manager_faults"
          ~help:"Faults recorded against a graft" labels;
      m_fallbacks =
        Graft_metrics.counter "graftkit_manager_fallbacks"
          ~help:"Invocations answered by the kernel default path" labels;
      m_quarantines =
        Graft_metrics.counter "graftkit_manager_quarantines"
          ~help:"Permanent quarantines (struck out)" labels;
    }
  in
  Hashtbl.replace t.grafts name g;
  Graft_trace.Trace.instant Graft_trace.Trace.Manager ("register:" ^ name);
  g

let find t name = Hashtbl.find_opt t.grafts name
let grafts t = Hashtbl.fold (fun _ g acc -> g :: acc) t.grafts []
let max_faults g = g.policy.max_faults

let state_name = function
  | Loaded -> "loaded"
  | Attached -> "attached"
  | Disabled f -> "disabled: " ^ Fault.to_string f
  | Quarantined f -> "quarantined: " ^ Fault.to_string f

let state_code = function
  | Loaded -> 0
  | Attached -> 1
  | Disabled _ -> 2
  | Quarantined _ -> 3

(* Supervision state as gauges, published on demand (rather than on
   every transition — callers outside the manager flip [state] directly
   in tests and saboteurs, so only a snapshot-time read is guaranteed
   accurate). [graftkit serve] calls this at each telemetry snapshot so
   the time series shows when each graft was disabled, re-enabled, or
   quarantined. *)
let publish_state_gauges t =
  Hashtbl.iter
    (fun _ g ->
      let labels = [ ("graft", g.g_name) ] in
      Graft_metrics.set
        (Graft_metrics.gauge "graftkit_manager_state"
           ~help:"Supervision state: 0 loaded, 1 attached, 2 disabled, \
                  3 quarantined" labels)
        (float_of_int (state_code g.state));
      Graft_metrics.set
        (Graft_metrics.gauge "graftkit_manager_strikes"
           ~help:"Strikes accumulated toward permanent quarantine" labels)
        (float_of_int g.strikes))
    t.grafts

(* The supervision state machine obeys these at every step; the qcheck
   properties drive random fault plans against them. *)
let invariants_ok g =
  let p = g.policy in
  g.invocations >= 0 && g.faults >= 0
  && g.total_faults >= g.faults
  && g.strikes >= 0
  && g.fallbacks >= 0
  &&
  match g.state with
  | Loaded -> g.faults = 0 && g.strikes = 0
  | Attached -> g.faults < p.max_faults && g.strikes < p.max_strikes
  | Disabled _ ->
      g.cooldown >= 1 && g.strikes >= 1 && g.strikes < p.max_strikes
  | Quarantined _ -> g.strikes = p.max_strikes

(** The kernel's integrity checker found corruption attributable to
    [g] — only possible for an unprotected graft, and unconditionally
    fatal: there is no telling what else was overwritten. *)
let kernel_corruption g ~detail =
  g.total_faults <- g.total_faults + 1;
  Graft_trace.Trace.instant Graft_trace.Trace.Manager ("panic:" ^ g.g_name);
  raise
    (Kernel_panic
       (Printf.sprintf "unprotected graft %s corrupted the kernel: %s" g.g_name
          detail))

(* Record a fault against [g]: panic when the technology offers no
   protection, otherwise spend the budget, strike, back off, and
   quarantine on the last strike. *)
let record_fault g fault =
  g.faults <- g.faults + 1;
  g.total_faults <- g.total_faults + 1;
  Graft_metrics.inc g.m_faults;
  Graft_trace.Trace.instant ~arg:g.total_faults Graft_trace.Trace.Manager
    ("fault:" ^ g.g_name);
  if Technology.can_crash_kernel g.tech then begin
    Graft_trace.Trace.instant Graft_trace.Trace.Manager ("panic:" ^ g.g_name);
    raise
      (Kernel_panic
         (Printf.sprintf "unprotected graft %s corrupted the kernel: %s"
            g.g_name (Fault.to_string fault)))
  end;
  if g.faults >= g.policy.max_faults then begin
    (* Claim the strike through the lock-free ledger: [fetch_and_add]
       means a concurrent strike from another domain can't be lost,
       and the CAS inside [Strikes.strike] hands the quarantine
       transition to exactly one caller. [g.strikes] stays a mirror of
       the ledger so snapshot gauges and tests read it without an
       atomic. *)
    match Strikes.strike g.jail with
    | Strikes.Quarantine ->
        g.strikes <- g.policy.max_strikes;
        g.state <- Quarantined fault;
        g.cooldown <- 0;
        Graft_metrics.inc g.m_quarantines;
        Graft_trace.Trace.instant ~arg:g.strikes Graft_trace.Trace.Manager
          ("quarantine:" ^ g.g_name)
    | Strikes.Already_quarantined ->
        (* Another caller performed the transition; converge the local
           view without double-counting the quarantine. *)
        g.strikes <- g.policy.max_strikes;
        g.state <- Quarantined fault;
        g.cooldown <- 0
    | Strikes.Struck n ->
        g.strikes <- n;
        let backoff =
          let b = ref g.policy.backoff_base in
          for _ = 2 to n do
            b := !b * g.policy.backoff_factor
          done;
          !b
        in
        g.state <- Disabled fault;
        g.cooldown <- backoff;
        Graft_trace.Trace.instant ~arg:backoff Graft_trace.Trace.Manager
          ("disable:" ^ g.g_name)
  end

let fallback g =
  g.fallbacks <- g.fallbacks + 1;
  Graft_metrics.inc g.m_fallbacks

(* Run one graft invocation, catching faults per the graft's trust
   model. Returns [None] when the graft is not in a runnable state or
   faulted — the caller then uses the kernel's default path. *)
let rec invoke g f =
  match g.state with
  | Loaded ->
      fallback g;
      None
  | Quarantined _ ->
      fallback g;
      None
  | Disabled _ ->
      (* Each fallback invocation burns down the backoff; when it
         expires the graft gets a fresh fault budget and this very
         invocation runs on it. *)
      g.cooldown <- g.cooldown - 1;
      if g.cooldown > 0 then begin
        fallback g;
        None
      end
      else begin
        g.state <- Attached;
        g.faults <- 0;
        g.cooldown <- 0;
        Graft_trace.Trace.instant ~arg:g.strikes Graft_trace.Trace.Manager
          ("re-enable:" ^ g.g_name);
        invoke g f
      end
  | Attached -> (
      g.invocations <- g.invocations + 1;
      Graft_metrics.inc g.m_invocations;
      (* Sampled span: invoke sits on hot paths (one call per eviction
         or filter flush); [g_name] is preallocated so the recording
         path stays allocation-free. Faulting invocations lose their
         span — the fault instant marks them instead. *)
      let tok = Graft_trace.Trace.hot_begin () in
      match f () with
      | v ->
          Graft_trace.Trace.span_end ~arg:0 Graft_trace.Trace.Manager g.g_name tok;
          Some v
      | exception Fault.Fault fault ->
          record_fault g fault;
          fallback g;
          None
      | exception Failure msg ->
          (* Runners raise a graft's own fault; a Failure is a graft
             that broke its host contract (a Tcl proc whose result is
             not an integer). *)
          record_fault g (Fault.Host_error msg);
          fallback g;
          None
      | exception Division_by_zero ->
          (* A native graft's divide trap, caught at the barrier the
             way a trap handler would. *)
          record_fault g Fault.Division_by_zero;
          fallback g;
          None)

(** Attach an eviction graft to a VM subsystem. [hot_pages] supplies
    the application's current hot list at each eviction; the kernel
    exports it and its LRU chain into the graft's window, asks the
    graft to choose, and falls back to its own candidate whenever the
    graft is disabled or faults. *)
let attach_evict t ~graft_name vm (runner : Runners.evict)
    ~(hot_pages : unit -> int array) =
  let g =
    match find t graft_name with
    | Some g -> g
    | None -> invalid_arg "Manager.attach_evict: unknown graft"
  in
  g.state <- Attached;
  Graft_trace.Trace.instant Graft_trace.Trace.Manager ("attach:" ^ graft_name);
  Graft_kernel.Vmsys.set_hook vm
    (Some
       (fun ~candidate ~lru_pages ->
         let choice =
           invoke g (fun () ->
               runner.Runners.refresh ~hot:(hot_pages ()) ~lru:lru_pages;
               runner.Runners.choose ())
         in
         match choice with Some page -> page | None -> candidate))

(** Attach an MD5 runner as a stream filter: data flowing through is
    copied into the graft and fingerprinted per chunk boundary at
    [finish]. Returns the filter and a digest query. *)
let attach_md5_filter t ~graft_name (runner : Runners.md5) ~capacity =
  let g =
    match find t graft_name with
    | Some g -> g
    | None -> invalid_arg "Manager.attach_md5_filter: unknown graft"
  in
  g.state <- Attached;
  Graft_trace.Trace.instant Graft_trace.Trace.Manager ("attach:" ^ graft_name);
  let staged = Buffer.create capacity in
  let digest = ref None in
  let filter =
    {
      Graft_kernel.Streams.name = "md5:" ^ Technology.name runner.Runners.m_tech;
      push =
        (fun chunk ->
          if Buffer.length staged + Bytes.length chunk > capacity then
            Fault.raise_fault
              (Fault.Host_error "md5 graft buffer capacity exceeded");
          Buffer.add_bytes staged chunk;
          chunk);
      flush =
        (fun () ->
          let data = Buffer.to_bytes staged in
          let result =
            invoke g (fun () ->
                runner.Runners.load data;
                runner.Runners.compute (Bytes.length data);
                runner.Runners.digest_hex ())
          in
          digest := result;
          Bytes.create 0);
    }
  in
  (filter, fun () -> !digest)

(** Wrap a logical-disk policy so its faults are metered; a disabled
    policy degrades to identity mapping (writes in place). *)
let attach_logdisk t ~graft_name (policy : Graft_kernel.Logdisk.policy) =
  let g =
    match find t graft_name with
    | Some g -> g
    | None -> invalid_arg "Manager.attach_logdisk: unknown graft"
  in
  g.state <- Attached;
  Graft_trace.Trace.instant Graft_trace.Trace.Manager ("attach:" ^ graft_name);
  {
    Graft_kernel.Logdisk.pname = policy.Graft_kernel.Logdisk.pname;
    map_write =
      (fun logical ->
        match
          invoke g (fun () -> policy.Graft_kernel.Logdisk.map_write logical)
        with
        | Some phys -> phys
        | None -> logical);
    lookup =
      (fun logical ->
        match
          invoke g (fun () -> policy.Graft_kernel.Logdisk.lookup logical)
        with
        | Some phys -> phys
        | None -> logical);
  }
