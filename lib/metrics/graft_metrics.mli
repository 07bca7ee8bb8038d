(** Graftmeter: the metrics registry, sharded per domain.

    Counters, gauges, and log-linear histograms registered by (family
    name, label set) — re-registering the same pair returns the same
    cell, so instrumentation sites can call {!counter} at module
    initialisation without coordinating. Counter increments and
    histogram observations gate on a single global flag (one load and
    one branch when disabled); gauges always record, since they hold
    configuration facts rather than event counts.

    Each domain owns a private registry — registrations and increments
    never take a lock — and {!to_openmetrics}/{!to_json} merge every
    shard on read: counters sum, gauges take the max (use a ["domain"]
    label for per-shard gauges), histograms merge bucketwise. On the
    main domain, with no worker shards, behaviour and exported bytes
    are identical to the historical process-wide registry. *)

type labels = (string * string) list

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** [with_enabled on f] runs [f] with counting switched [on] (or off),
    then restores the flag it found, whether [f] returns or raises. *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** Zero every value in every registry; registrations survive. *)
val reset : unit -> unit

type counter
type gauge

(** [counter name labels] registers (or retrieves) a counter series.
    The OpenMetrics sample name gains a [_total] suffix; pass the bare
    family name here. Raises [Invalid_argument] if [name] is already
    registered with a different kind. *)
val counter : ?help:string -> string -> labels -> counter

(** Add 1 when metrics are enabled; a load and a branch otherwise. *)
val inc : counter -> unit

(** [add c n] adds [n] as {!inc} adds 1. The count is a plain
    argument, so a call allocates nothing. *)
val add : counter -> int -> unit

val counter_value : counter -> int
val gauge : ?help:string -> string -> labels -> gauge

(** Gauges record regardless of {!enabled}. *)
val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** [histogram name labels] registers (or retrieves) a histogram
    series. [subbits] (default 0: the log2 layout) selects the
    log-linear resolution of a {e fresh} series; an existing series
    keeps the layout it was created with. *)
val histogram : ?help:string -> ?subbits:int -> string -> labels -> Graft_trace.Histo.t

(** Record one value into a histogram when metrics are enabled. *)
val observe : Graft_trace.Histo.t -> int -> unit

(** {2 Exemplars}

    Graftlens links SLO histograms back to traces: each hot bucket can
    carry the trace id of the worst retained op that landed in it,
    emitted in OpenMetrics [# {trace_id="..."} value] exemplar
    syntax. *)

type exemplar = {
  ex_le : int;  (** the bucket's inclusive [le] bound *)
  ex_trace : string;  (** rendered trace id ({!Graft_trace.Trace.id_string}) *)
  ex_value : int;  (** the op's observed value (latency) *)
}

(** Replace the exemplar set of one histogram series in the calling
    domain's registry — at most one exemplar per [le] bound. Merging
    registries keeps the larger-valued exemplar per bound. *)
val set_exemplars : string -> labels -> exemplar list -> unit

(** {2 Domain-cached cells}

    Instrumentation sites that used to bind a cell at module
    initialisation (pinning it to the main domain's registry forever)
    bind one of these thunks instead: the cell is resolved once per
    domain, in that domain's registry, and cached in domain-local
    storage. *)

val domain_counter : ?help:string -> string -> labels -> unit -> counter

val domain_histogram :
  ?help:string -> ?subbits:int -> string -> labels -> unit -> Graft_trace.Histo.t

(** {2 Registries and merge}

    The registry type is exposed for the merge-law tests and for the
    sharded serve harness; ordinary instrumentation never mentions
    it. *)

type registry

(** A fresh, empty registry (not attached to any domain). *)
val create_registry : unit -> registry

(** [with_registry r f] routes registrations, increments, and exports
    performed inside [f] to [r] instead of the calling domain's
    registry. Restores the previous routing on exit, including on
    exceptions. *)
val with_registry : registry -> (unit -> 'a) -> 'a

(** Merge a list of registries into a fresh one: counters sum, gauges
    take the max, histograms merge bucketwise. Associative and
    commutative with the empty registry as identity; raises
    [Invalid_argument] if the same family name appears with two
    different kinds. *)
val merge_registries : registry list -> registry

(** Registries created implicitly by worker domains (newest first). *)
val shard_registries : unit -> registry list

(** Drop all worker-domain registries from the merged view. Call
    between serve runs so a joined domain's counts don't leak into the
    next export. *)
val reset_shards : unit -> unit

(** OpenMetrics exposition of one registry, ignoring every other
    shard. *)
val registry_openmetrics : registry -> string

(** JSON mirror of one registry. *)
val registry_json : registry -> string

(** Publish the Graftscope ring's health (events recorded, events
    dropped by overwrite) as [graftkit_trace_*] gauges, so periodic
    snapshots capture trace loss alongside the data it would taint.
    The ring is domain-local; sharded callers pass a ["domain"] label
    so each ring keeps its own series. *)
val publish_trace_gauges : ?labels:labels -> unit -> unit

(** OpenMetrics text exposition: sorted, [# TYPE]/[# HELP] headers,
    cumulative [le] buckets for histograms, terminated by [# EOF]. *)
val to_openmetrics : unit -> string

(** JSON mirror: [{"series":[{"name":...,"kind":...,"labels":...,...}]}]. *)
val to_json : unit -> string
