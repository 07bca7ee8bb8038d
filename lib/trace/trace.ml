(** Graftscope: the event collector.

    A domain-local sink records typed events from every instrumented
    layer — kernel hooks, the graft manager, both VM dispatch loops,
    and the simulated clock. Two states:

    - [Null] (the default): every record operation is one load and one
      branch on a value that never changes between experiments, so the
      disabled tracer is branch-predicted away (ablation A8 measures
      this as zero within noise);
    - [Ring r]: events go into a preallocated ring of mutable slots.
      The hot path mutates slot fields in place and timestamps with
      {!Graft_util.Timer.now_ns_int}, so recording allocates nothing;
      when the ring is full the oldest events are overwritten and
      counted in {!dropped}.

    Span timing costs two clock reads, which is real money next to a
    sub-microsecond graft operation, so high-frequency sites (VM
    entries, manager invocations, map helper calls) use {!hot_begin}:
    a sampled begin that records every [sample]-th occurrence and
    skips the rest for the price of one increment and one mask.
    Low-frequency sites (faults, lifecycle transitions, filter pushes,
    segment flushes) record unconditionally via
    {!span_begin}/{!instant}/{!counter}.

    {b Graftlens: causal ids and tail-based retention.} A serving loop
    can declare the operation it is about to execute with
    {!op_begin}[ tid]: until the matching {!op_end}, every event
    recorded on this domain — whatever layer records it — carries
    [tid], so all spans an op touches share its id without any layer
    threading identifiers explicitly. While an op is open, events land
    in a pending scratch buffer; {!op_end}[ ~retain] then either
    commits the whole set to the ring (the op breached its latency
    threshold or faulted — tail-based retention) or only the events
    the 1-in-[sample] policy would have kept anyway, and stamps a
    retention-marker instant carrying the id. Rings can also run on a
    {e logical} clock ([enable ~logical:true]): timestamps become a
    per-ring counter, making ring contents — and every export — a
    pure function of the recorded operations, which is what lets the
    flight recorder promise byte-identical bundles for one (seed,
    config). *)

(** One trace track per instrumented subsystem; the Chrome exporter
    renders each as its own named thread. *)
type track =
  | Vmsys  (** eviction hook dispatch, page faults *)
  | Streams  (** per-filter push/flush *)
  | Logdisk  (** policy runs, segment flushes *)
  | Upcall  (** protection-boundary crossings *)
  | Manager  (** graft lifecycle and metered invocations *)
  | Vm_stack  (** stack VM entries (every stack tier) *)
  | Vm_reg  (** register VM entries *)
  | Clock  (** simulated-time charges *)
  | App  (** workload-level marks (ablation A8, CLI scenarios) *)
  | Map  (** graft-map helper calls (lookup/update/delete) *)

let ntracks = 10

let track_index = function
  | Vmsys -> 0
  | Streams -> 1
  | Logdisk -> 2
  | Upcall -> 3
  | Manager -> 4
  | Vm_stack -> 5
  | Vm_reg -> 6
  | Clock -> 7
  | App -> 8
  | Map -> 9

let tracks =
  [|
    Vmsys; Streams; Logdisk; Upcall; Manager; Vm_stack; Vm_reg; Clock; App;
    Map;
  |]

let track_name = function
  | Vmsys -> "vmsys"
  | Streams -> "streams"
  | Logdisk -> "logdisk"
  | Upcall -> "upcall"
  | Manager -> "manager"
  | Vm_stack -> "stackvm"
  | Vm_reg -> "regvm"
  | Clock -> "simclock"
  | App -> "workload"
  | Map -> "graftmap"

type kind = Span | Instant | Counter

(* All-int slot (plus an immutable name pointer): writing one never
   allocates. [s_dur] is the duration for spans, -1 for instants, and
   the sampled value for counters. [s_tid] is the causal trace id of
   the op that recorded the event, 0 when none was open. *)
type slot = {
  mutable s_ts : int;
  mutable s_dur : int;
  mutable s_track : int;
  mutable s_kind : int;  (** 0 span, 1 instant, 2 counter *)
  mutable s_name : string;
  mutable s_arg : int;
  mutable s_tid : int;
}

(* Events recorded while an op is open are parked here until the
   retention decision; sized for one op's worth of spans, not a
   ring's. Overflow is counted, never reallocated. *)
let pending_capacity = 256

type ring = {
  slots : slot array;
  capacity : int;
  sample_mask : int;  (** hot-span period - 1; period is a power of 2 *)
  logical : bool;  (** deterministic per-ring clock instead of wall ns *)
  mutable lclock : int;  (** logical clock value (when [logical]) *)
  mutable next : int;  (** write cursor *)
  mutable total : int;  (** events ever written (drop-oldest counter) *)
  mutable tick : int;  (** hot-span sampling counter *)
  mutable cur_tid : int;  (** ambient causal id; 0 = none *)
  mutable op_open : bool;
  pend : slot array;
  pend_keep : bool array;  (** sampled-in flag per pending slot *)
  mutable pend_n : int;
  mutable spilled : int;  (** pending-overflow events discarded *)
  mutable retained : int;  (** ops committed in full by {!op_end} *)
}

type sink = Null | Ring of ring

(* The sink is domain-local: each domain enables (and owns) its own
   ring, so hot-path recording never synchronises — the same striping
   real per-CPU trace buffers use. [DLS.get] on an already-initialised
   key is an array load off the domain structure, so the disabled cost
   stays one load and one branch. The merge story lives upstream:
   sharded serve snapshots sum each domain's {!dropped} count and
   publish per-domain gauges. *)
let sink_key = Domain.DLS.new_key (fun () -> Null)
let get_sink () = Domain.DLS.get sink_key
let set_sink s = Domain.DLS.set sink_key s

(** Token returned by a skipped or disabled span begin. *)
let nil_token = min_int

let enabled () = match get_sink () with Null -> false | Ring _ -> true

let rec pow2_at_least n acc =
  if acc >= n then acc else pow2_at_least n (acc * 2)

let fresh_slot _ =
  { s_ts = 0; s_dur = 0; s_track = 0; s_kind = 0; s_name = ""; s_arg = 0;
    s_tid = 0 }

let enable ?(capacity = 65536) ?(sample = 32) ?(logical = false) () =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity <= 0";
  if sample <= 0 then invalid_arg "Trace.enable: sample <= 0";
  set_sink
    (Ring
      {
        slots = Array.init capacity fresh_slot;
        capacity;
        sample_mask = pow2_at_least sample 1 - 1;
        logical;
        lclock = 0;
        next = 0;
        total = 0;
        tick = 0;
        cur_tid = 0;
        op_open = false;
        pend = Array.init pending_capacity fresh_slot;
        pend_keep = Array.make pending_capacity false;
        pend_n = 0;
        spilled = 0;
        retained = 0;
      })

let disable () = set_sink Null

let with_ring ?capacity ?sample ?logical f =
  let saved = get_sink () in
  enable ?capacity ?sample ?logical ();
  Fun.protect ~finally:(fun () -> set_sink saved) f

let clear () =
  match get_sink () with
  | Null -> ()
  | Ring r ->
      r.next <- 0;
      r.total <- 0;
      r.tick <- 0;
      r.lclock <- 0;
      r.cur_tid <- 0;
      r.op_open <- false;
      r.pend_n <- 0;
      r.spilled <- 0;
      r.retained <- 0

let dropped () =
  match get_sink () with Null -> 0 | Ring r -> max 0 (r.total - r.capacity)

(** Events ever written since enable/clear, including dropped ones. *)
let total_recorded () = match get_sink () with Null -> 0 | Ring r -> r.total

(** Ops committed in full by {!op_end} since enable/clear. *)
let retained_ops () =
  match get_sink () with Null -> 0 | Ring r -> r.retained

(** Events lost to pending-buffer overflow while an op was open. *)
let op_spilled () =
  match get_sink () with Null -> 0 | Ring r -> r.spilled

(** The causal id events currently record under (0 when no op is
    open). *)
let current_tid () =
  match get_sink () with Null -> 0 | Ring r -> r.cur_tid

(** Canonical rendering of a trace id — what OpenMetrics exemplars and
    Chrome [trace_id] args carry. *)
let id_string tid = Printf.sprintf "%08x" tid

(* Clock read: one increment under a logical ring, the wall clock
   otherwise. Logical durations count clock reads between begin and
   end — deterministic, which is the point. *)
let now r =
  if r.logical then begin
    let t = r.lclock + 1 in
    r.lclock <- t;
    t
  end
  else Graft_util.Timer.now_ns_int ()

(* Span tokens carry the timestamp in the upper bits and the
   sampled-in flag in bit 0, so a hot span recorded while an op is
   open (every one is, for the retention decision) still remembers
   whether the 1-in-[sample] policy would have kept it. Monotonic ns
   fit in 62 bits with room to spare. *)
let token ts keep = (ts lsl 1) lor (if keep then 1 else 0)

let commit r (p : slot) =
  let s = Array.unsafe_get r.slots r.next in
  s.s_ts <- p.s_ts;
  s.s_dur <- p.s_dur;
  s.s_track <- p.s_track;
  s.s_kind <- p.s_kind;
  s.s_name <- p.s_name;
  s.s_arg <- p.s_arg;
  s.s_tid <- p.s_tid;
  let n = r.next + 1 in
  r.next <- (if n = r.capacity then 0 else n);
  r.total <- r.total + 1

let write ?(keep = true) r ts dur track kind name arg =
  if r.op_open then begin
    if r.pend_n < pending_capacity then begin
      let s = Array.unsafe_get r.pend r.pend_n in
      s.s_ts <- ts;
      s.s_dur <- dur;
      s.s_track <- track_index track;
      s.s_kind <- kind;
      s.s_name <- name;
      s.s_arg <- arg;
      s.s_tid <- r.cur_tid;
      Array.unsafe_set r.pend_keep r.pend_n keep;
      r.pend_n <- r.pend_n + 1
    end
    else r.spilled <- r.spilled + 1
  end
  else begin
    let s = Array.unsafe_get r.slots r.next in
    s.s_ts <- ts;
    s.s_dur <- dur;
    s.s_track <- track_index track;
    s.s_kind <- kind;
    s.s_name <- name;
    s.s_arg <- arg;
    s.s_tid <- r.cur_tid;
    let n = r.next + 1 in
    r.next <- (if n = r.capacity then 0 else n);
    r.total <- r.total + 1
  end

let instant ?(arg = 0) track name =
  match get_sink () with
  | Null -> ()
  | Ring r -> write r (now r) (-1) track 1 name arg

let counter track name value =
  match get_sink () with
  | Null -> ()
  | Ring r -> write r (now r) value track 2 name 0

let span_begin () =
  match get_sink () with
  | Null -> nil_token
  | Ring r -> token (now r) true

let hot_begin () =
  match get_sink () with
  | Null -> nil_token
  | Ring r ->
      let t = r.tick in
      r.tick <- t + 1;
      let sampled = t land r.sample_mask = 0 in
      (* With an op open every hot span records (into pending, for the
         retention decision); the sampled bit decides whether it
         survives a non-retained op. *)
      if r.op_open then token (now r) sampled
      else if sampled then token (now r) true
      else nil_token

let span_end ~arg track name tok =
  if tok <> nil_token then
    match get_sink () with
    | Null -> ()
    | Ring r ->
        let ts = tok asr 1 in
        write ~keep:(tok land 1 = 1) r ts (now r - ts) track 0 name arg

(* ------------------------------------------------------------------ *)
(* Graftlens op scoping.                                               *)
(* ------------------------------------------------------------------ *)

let op_flush r ~retain =
  r.op_open <- false;
  for i = 0 to r.pend_n - 1 do
    if retain || Array.unsafe_get r.pend_keep i then
      commit r (Array.unsafe_get r.pend i)
  done;
  r.pend_n <- 0

(** Open an op scope with causal id [tid] (nonzero). Until the
    matching {!op_end}, every event recorded on this domain carries
    [tid] and is parked pending the retention decision. A still-open
    scope is flushed as non-retained first — scopes never nest. *)
let op_begin tid =
  match get_sink () with
  | Null -> ()
  | Ring r ->
      if r.op_open then op_flush r ~retain:false;
      r.cur_tid <- tid;
      r.op_open <- true

(** Close the op scope. [retain = true] (the op faulted or breached
    its latency threshold) commits every pending event to the ring and
    stamps a retention-marker instant [name] (App track, [arg] —
    conventionally the op's latency — and the op's id); [retain =
    false] commits only the events the 1-in-[sample] policy kept.
    [name] must be preallocated, like every event name. *)
let op_end ~arg ~retain name =
  match get_sink () with
  | Null -> ()
  | Ring r ->
      if r.op_open then begin
        op_flush r ~retain;
        if retain then begin
          r.retained <- r.retained + 1;
          (* After the flush [op_open] is false, so the marker lands in
             the ring directly — still stamped with the op's id. *)
          write r (now r) (-1) App 1 name arg
        end;
        r.cur_tid <- 0
      end

(* ------------------------------------------------------------------ *)
(* Introspection (exporters and tests; not a hot path).                *)
(* ------------------------------------------------------------------ *)

type event = {
  ts_ns : int;
  dur_ns : int;  (** spans only; -1 otherwise *)
  track : track;
  kind : kind;
  name : string;
  arg : int;  (** span/instant argument, or the counter value *)
  tid : int;  (** causal trace id; 0 = none *)
}

let kind_of_int = function 0 -> Span | 1 -> Instant | _ -> Counter

(** Recorded events, oldest first (record order — spans are recorded
    when they end). *)
let events () =
  match get_sink () with
  | Null -> [||]
  | Ring r ->
      let n = min r.total r.capacity in
      let start = if r.total <= r.capacity then 0 else r.next in
      Array.init n (fun i ->
          let s = r.slots.((start + i) mod r.capacity) in
          {
            ts_ns = s.s_ts;
            dur_ns = (if s.s_kind = 0 then s.s_dur else -1);
            track = tracks.(s.s_track);
            kind = kind_of_int s.s_kind;
            name = s.s_name;
            arg = (if s.s_kind = 2 then s.s_dur else s.s_arg);
            tid = s.s_tid;
          })
