(** Per-technology runners for the paper's grafts.

    A runner packages "the same graft, written for technology T" behind
    a uniform closure interface, so the benchmark harness and the graft
    manager treat all technologies identically. {!regime} says which
    mechanism implements each technology:

    - native regimes (C / Modula-3 / SFI analogues) close over the
      functor instances from {!Graft_grafts};
    - VM technologies load the GEL source from
      {!Graft_grafts.Gel_sources} as a {e module} (front end, compile
      where the tier compiles, verify) and enter it per call through an
      {e instance}: the tenant's own memory, host closures (its graft
      maps are reached through the typed helpers among them) and
      resident session over the module's code. A kernel keeps its
      modules in one {!modules} table ({!Manager.modules}), so a graft
      many tenants run is loaded once per kernel;
    - the source interpreter evaluates the Tcl source from
      {!Graft_grafts.Script_sources} once and invokes its procs;
    - the specialized filter VM runs only packet filters (asking it for
      any other graft raises — the paper's expressiveness limit);
    - [Upcall_server] is not a wall-clock runner: its boundary cost is
      simulated ({!Graft_kernel.Upcall}) and analysed by {!Breakeven};
      the one exception is {!evict_upcall}, which runs the native graft
      behind a simulated upcall for end-to-end experiments.

    A graft that faults raises its own [Graft_mem.Fault.Fault], so the
    manager's barrier records the fault's true class on every
    technology. *)

val huge_fuel : int

(** Smallest power of two >= n (at least 1024). *)
val next_pow2 : int -> int

(* ------------------------------------------------------------------ *)
(** {1 The regime table} *)

(** The mechanism that implements a technology's paper grafts. *)
type regime =
  | Native of (module Graft_grafts.Access.S)
      (** the graft compiled once per access discipline (C, Modula-3,
          SFI masking) *)
  | Vm  (** GEL on the technology's tier of {!engine} *)
  | Script  (** Tcl on the source interpreter *)
  | Filter_vm  (** the specialized packet-filter VM *)
  | Upcall  (** a user-level server, analysed by {!Breakeven} *)

(** The one place that says which mechanism implements [tech]; the
    graft builders below, Graftjail's saboteurs and the experiments'
    size rules all dispatch on it. *)
val regime : Technology.t -> regime

(* ------------------------------------------------------------------ *)
(** {1 Shared GEL plumbing and the tier table}

    Exported for harnesses (the Graftjail saboteurs, the CLI, tests)
    that need a linked image, their own fuel budget or a bare
    engine. *)

type gel_env = {
  image : Graft_gel.Link.image;
  windows : (string * Graft_mem.Memory.region) list;
}

(** [gel_env tech source windows] compiles [source] for [tech] and
    links it into a fresh power-of-two memory with the given shared
    windows (name, length, writable). The IR optimizer runs first for
    bytecode-opt, and for no other technology. [hosts] resolves extern
    declarations (e.g. {!map_hosts}). Raises [Failure] if the source
    does not compile or link. *)
val gel_env :
  ?hosts:Graft_gel.Link.host list ->
  Technology.t ->
  string ->
  (string * int * bool) list ->
  gel_env

(** Look up a shared window by name. *)
val window : gel_env -> string -> Graft_mem.Memory.region

(** {!Graft_kernel.Graftmap.hosts} dispatchers as GEL link hosts. *)
val map_hosts : Graft_kernel.Graftmap.t array -> Graft_gel.Link.host list

(** Enter function [fn], an index from {!Graft_gel.Ir.entry} into the
    IR the tier compiled, with [args]; returns its result and raises
    the graft's [Graft_mem.Fault.Fault]. *)
type engine = fn:int -> args:int array -> int

(** The tier table: [engine ~fuel tech image] loads [image] for VM
    technology [tech] (verifying, and compiling where the tier
    compiles) and returns an invoker that enters a resident session
    with [fuel] per call. Entries resolve against [image]'s IR. This
    is the only place that maps a VM
    technology to its loader and engine: ast-interp to {!Graft_gel.Interp};
    bytecode-vm, bytecode-opt and safe-lang-static to their loaders and
    the one {!Graft_stackvm.Vm} loop; jit to Graftjit; sfi-wj and
    sfi-full to the register VM. [bounded] makes every tier's
    verifier admit a backward jump only as the back edge of a loop
    whose bound it derives from the code, with nothing shipped beside
    it; [profile] counts executed opcodes (indexed
    by {!Graft_stackvm.Opcode.class_names} on the stack tiers and the
    JIT, {!Graft_regvm.Isa.class_names} on the register VM; the
    reference interpreter keeps none). Raises [Failure] if the graft
    is rejected, [Invalid_argument] for non-VM technologies. *)
val engine :
  ?bounded:bool ->
  ?profile:Graft_trace.Opprof.t ->
  fuel:int ->
  Technology.t ->
  Graft_gel.Link.image ->
  engine

(** {1 Loaded interpreted grafts}

    The GEL tiers and the Tcl interpreter load a graft into the same
    record, so each paper graft has one interpreted runner. *)

type loaded = {
  cells : int array;  (** the graft memory's cells *)
  shared : (string * Graft_mem.Memory.region) list;
      (** the shared windows, by name *)
  entry : string -> nargs:int -> int array -> int;
      (** [entry name ~nargs] resolves [name] once and returns the call
          that enters it with [nargs] arguments. On the GEL tiers it
          checks the arity ({!Graft_gel.Ir.entry}) and raises
          [Invalid_argument] for a bad entry point; the call enters
          the instance's session and raises the graft's fault. On Tcl
          it closes over the proc name. *)
}

(** {1 Modules and instances}

    A module is what loading derives from the code alone: the GEL IR
    (shared by every tier that compiles the same source; bytecode-opt's
    optimized IR is its own) and the tier's verified program — the
    stack code with its tables, the JIT's block plan, the register
    VM's instrumented code, or the AST tier's checked IR. It is loaded
    against an image of its own (scratch cells and hosts that never
    run), so it holds no tenant's state. An instance is one tenant's:
    its memory linked from the module's IR, its host closures (its map
    helpers among them), and a session over the module's code. *)

(** A module table: each distinct module is loaded once per table. Its
    key holds every input a load reads, compared structurally: the
    technology, the GEL source text, the shared windows (name, cells,
    writable) and [bounded]. A kernel
    owns one ({!Manager.modules}); a table is never shared between
    kernels or domains. *)
type modules

val create_modules : unit -> modules

(** Modules loaded into the table so far. *)
val module_count : modules -> int

type gel_module

(** [load_module t tech source windows] finds the module in [t], or
    loads it into [t]: front end (shared per source and optimization
    level), then the tier's loader. Raises [Failure] if the graft is
    rejected; a rejected graft is not kept. *)
val load_module :
  modules ->
  ?bounded:bool ->
  Technology.t ->
  string ->
  (string * int * bool) list ->
  gel_module

(** [instantiate m windows] links [m]'s IR into a fresh memory with
    [windows] and [hosts] (a tenant's graft maps arrive as
    {!map_hosts}) and starts a session over [m]'s code, entered at
    [fuel] (default {!huge_fuel}) per call. Raises [Failure] when the
    link's layout (array bases, lengths and writability, global base,
    memory size) differs from the module's: code is never run on a
    layout it was not verified for. *)
val instantiate :
  ?hosts:Graft_gel.Link.host list ->
  ?fuel:int ->
  gel_module ->
  (string * int * bool) list ->
  loaded

(** [gel_graft tech source windows]: {!load_module} from [modules] (a
    fresh table when absent), then {!instantiate}. Every GEL runner
    below is built this way. *)
val gel_graft :
  ?modules:modules ->
  ?hosts:Graft_gel.Link.host list ->
  ?bounded:bool ->
  ?fuel:int ->
  Technology.t ->
  string ->
  (string * int * bool) list ->
  loaded

(** [tcl_graft source windows] maps the windows into a fresh memory,
    binds each as a Tcl array of the same name, runs [init] (host
    commands, kernel-set globals) and evaluates [source]. Each call
    starts on a fresh [fuel] budget (default {!huge_fuel}) and returns
    the proc's result as an integer; a proc whose result is not an
    integer raises [Failure]. *)
val tcl_graft :
  ?fuel:int ->
  ?init:(Graft_script.Script.t -> unit) ->
  string ->
  (string * int * bool) list ->
  loaded

(* ------------------------------------------------------------------ *)
(** {1 Page eviction (Prioritization)} *)

type evict = {
  e_tech : Technology.t;
  refresh : hot:int array -> lru:int array -> unit;
      (** lay the application hot list and kernel LRU chain into the
          graft's shared window (node placement shuffled when the
          runner was created with [rng]) *)
  contains : int -> bool;  (** hot-list membership — the timed op *)
  choose : unit -> int;  (** full victim selection over the LRU chain *)
}

(** Cells needed for [capacity_nodes] list nodes. *)
val evict_cells : int -> int

(** [evict tech ~capacity_nodes ()] builds a runner able to hold up to
    [capacity_nodes] nodes across both lists; call [refresh] to install
    them. Raises [Invalid_argument] for [Upcall_server] and
    [Specialized_vm]. *)
val evict :
  ?modules:modules ->
  ?rng:Graft_util.Prng.t ->
  Technology.t ->
  capacity_nodes:int ->
  unit ->
  evict

(** The hardware-protection path: the native unsafe graft behind a
    simulated upcall per invocation (plus marshalling for the exported
    lists), charged to the domain's clock. *)
val evict_upcall :
  ?rng:Graft_util.Prng.t ->
  domain:Graft_kernel.Upcall.domain ->
  capacity_nodes:int ->
  unit ->
  evict

(** Register-VM variant for the A4 ablation: returns [refresh] and a
    [contains] reporting (membership, dynamic instruction count).
    [~elide:true] lets the SFI pass skip verified in-segment masks. *)
val evict_regvm :
  ?rng:Graft_util.Prng.t ->
  ?elide:bool ->
  protection:Graft_regvm.Program.protection ->
  capacity_nodes:int ->
  unit ->
  (hot:int array -> lru:int array -> unit) * (int -> bool * int)

(* ------------------------------------------------------------------ *)
(** {1 MD5 fingerprinting (Stream)} *)

type md5 = {
  m_tech : Technology.t;
  load : bytes -> unit;
      (** kernel-side copy into the graft's space; raises
          [Invalid_argument] for a chunk longer than the capacity *)
  compute : int -> unit;  (** fingerprint the first n bytes — timed *)
  digest_hex : unit -> string;
}

(** [md5 tech ~capacity] builds a fingerprinting runner over a buffer
    of [capacity] bytes (a power of two for the SFI regimes). The
    digest is verified against RFC 1321 by callers before timing. *)
val md5 : ?modules:modules -> Technology.t -> capacity:int -> md5

(* ------------------------------------------------------------------ *)
(** {1 Logical disk (Black Box)} *)

(** [logdisk_policy tech ~nblocks] builds a mapping-policy graft for
    {!Graft_kernel.Logdisk.run}. [nblocks] must be a power of two for
    the SFI regimes. *)
val logdisk_policy :
  Technology.t -> nblocks:int -> Graft_kernel.Logdisk.policy

(** Dynamic instruction count of [writes] mapped writes on the register
    VM at the given protection level (A4's store-heavy case).
    [~elide:true] lets the SFI pass skip verified in-segment masks. *)
val logdisk_regvm_instructions :
  ?elide:bool ->
  protection:Graft_regvm.Program.protection ->
  nblocks:int ->
  writes:int ->
  unit ->
  int

(* ------------------------------------------------------------------ *)
(** {1 Packet filter} *)

val pkt_window_cells : int

(** [packet_filter tech ~protocol ~port] builds the canonical demux
    predicate ("ip and protocol and dst port"). Native regimes and the
    specialized filter VM read packets in place; VM technologies pay a
    copy into their window (a graft address space cannot alias kernel
    mbufs). *)
val packet_filter :
  Technology.t -> protocol:int -> port:int -> Graft_kernel.Netpkt.t -> bool

(* ------------------------------------------------------------------ *)
(** {1 Graftgate: stateful grafts over graft maps} *)

type demux = {
  d_tech : Technology.t;
  demux : Graft_kernel.Netpkt.t -> int;
      (** [scan * 1024 + count] for accepted packets, 0 otherwise *)
  d_conn : Graft_kernel.Graftmap.t;
      (** the runner's private 64-entry connection-counter map *)
}

(** [demux tech ~protocol ~marker] builds the stateful connection
    demux: per-connection packet counters in a fresh 64-entry array
    map, plus a certified bounded scan for [marker] in payload bytes
    54..69. Every tier loads with [~bounded:true] — the backward jump
    is accepted only because the verifier derives the scan's trip
    count. Raises [Invalid_argument] for non-VM technologies. *)
val demux :
  ?modules:modules -> Technology.t -> protocol:int -> marker:int -> demux

type hotset = {
  h_tech : Technology.t;
  touch : int -> int;  (** count an access; returns the page's count *)
  hot : int -> bool;  (** is the page still resident in the LRU map? *)
  h_map : Graft_kernel.Graftmap.t;  (** the runner's private LRU map *)
}

(** [hotset tech ~capacity] builds the hot-set tracking graft over a
    fresh LRU map: eviction policy lives in the kernel's map object,
    persistence across calls in the map, and the graft is loop-free.
    Raises [Invalid_argument] for non-VM technologies. *)
val hotset : ?modules:modules -> Technology.t -> capacity:int -> hotset
