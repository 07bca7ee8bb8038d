(** Graftscope: a low-overhead, opt-in event collector threaded
    through every layer of the kernel simulator.

    Disabled (the default, a [Null] sink) every record operation is a
    single load-and-branch that the branch predictor eliminates;
    enabled, events go into a preallocated ring with no allocation on
    the hot path, dropping the oldest events when full.

    Graftlens adds causal ids on top: {!op_begin}/{!op_end} scope a
    serving operation so every event any layer records in between
    carries the op's trace id, with tail-based retention (full span
    sets for ops that fault or breach a latency threshold, 1-in-N
    sampling for the rest) and an optional deterministic logical
    clock. *)

(** One track per instrumented subsystem; the Chrome exporter renders
    each as its own named thread. *)
type track =
  | Vmsys  (** eviction hook dispatch, page faults *)
  | Streams  (** per-filter push/flush *)
  | Logdisk  (** policy runs, segment flushes *)
  | Upcall  (** protection-boundary crossings *)
  | Manager  (** graft lifecycle and metered invocations *)
  | Vm_stack  (** stack VM entries (every stack tier) *)
  | Vm_reg  (** register VM entries *)
  | Clock  (** simulated-time charges *)
  | App  (** workload-level marks *)
  | Map  (** graft-map helper calls *)

val ntracks : int
val track_index : track -> int

(** All tracks, indexed by {!track_index}. *)
val tracks : track array

val track_name : track -> string

type kind = Span | Instant | Counter

(** [enable ~capacity ~sample ()] installs a fresh ring of [capacity]
    preallocated slots (default 65536). [sample] (default 32, rounded
    up to a power of two) is the {!hot_begin} period: high-frequency
    spans record every [sample]-th occurrence. [logical] (default
    false) replaces wall-clock timestamps with a per-ring counter:
    ring contents become a pure function of the recorded operations,
    so exports are byte-deterministic. *)
val enable : ?capacity:int -> ?sample:int -> ?logical:bool -> unit -> unit

(** Return to the [Null] sink, discarding the ring. *)
val disable : unit -> unit

(** [with_ring ?capacity ?sample ?logical f] runs [f] with a fresh ring
    installed as by {!enable}, then puts back the sink this domain had
    before (its own ring, or none), whether [f] returns or raises. *)
val with_ring :
  ?capacity:int -> ?sample:int -> ?logical:bool -> (unit -> 'a) -> 'a

val enabled : unit -> bool

(** Reset the ring in place (keeps capacity, sampling, and clock
    mode). *)
val clear : unit -> unit

(** Events overwritten by drop-oldest since {!enable}/{!clear}. *)
val dropped : unit -> int

(** Events ever written since {!enable}/{!clear}, including dropped
    ones; 0 when disabled. *)
val total_recorded : unit -> int

(** Ops committed in full by {!op_end ~retain:true} since
    {!enable}/{!clear}. *)
val retained_ops : unit -> int

(** Events lost to pending-buffer overflow while an op scope was
    open. *)
val op_spilled : unit -> int

(** The causal id events currently record under; 0 when no op scope
    is open (or the tracer is disabled). *)
val current_tid : unit -> int

(** Canonical rendering of a trace id — what OpenMetrics exemplars
    and Chrome [trace_id] args carry. *)
val id_string : int -> string

(** Point event. [arg] is a small integer payload (page number, byte
    count, ...). *)
val instant : ?arg:int -> track -> string -> unit

(** Sampled value (rendered as a counter track in Chrome). *)
val counter : track -> string -> int -> unit

(** Begin an unsampled span; returns a token for {!span_end}. Safe to
    call when disabled (returns a token [span_end] ignores). *)
val span_begin : unit -> int

(** Begin a sampled (hot-path) span: records every [sample]-th
    occurrence, otherwise returns the ignore-token. Inside an op scope
    every occurrence records (the retention decision needs the full
    set); the sampling policy instead decides which survive a
    non-retained op. *)
val hot_begin : unit -> int

(** Complete a span started by {!span_begin} or {!hot_begin}, with
    [arg] (0 when the span has nothing to say). The [name] should be a
    preallocated string: the tracer stores the pointer, it never copies
    or concatenates on the hot path. [arg] is a plain int, so closing a
    span allocates nothing. *)
val span_end : arg:int -> track -> string -> int -> unit

(** Open an op scope with causal trace id [tid] (nonzero). Every event
    recorded on this domain until the matching {!op_end} carries [tid]
    and is parked pending the retention decision. Scopes never nest: a
    still-open scope is flushed as non-retained first. No-op when
    disabled. *)
val op_begin : int -> unit

(** Close the op scope. [retain = true] commits every pending event
    and stamps a retention-marker instant [name] on the [App] track
    (with [arg], conventionally the op latency, and the op's id);
    [retain = false] keeps only the events 1-in-[sample] sampling
    would have kept. [name] must be preallocated. *)
val op_end : arg:int -> retain:bool -> string -> unit

type event = {
  ts_ns : int;
  dur_ns : int;  (** spans only; -1 otherwise *)
  track : track;
  kind : kind;
  name : string;
  arg : int;  (** span/instant argument, or the counter value *)
  tid : int;  (** causal trace id; 0 = none *)
}

(** Recorded events, oldest first (record order — spans are recorded
    when they end). *)
val events : unit -> event array
