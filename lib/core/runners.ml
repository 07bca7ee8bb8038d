(** Per-technology runners for the three paper grafts.

    A runner packages "the same graft, written for technology T" behind
    a uniform closure interface, so the benchmark harness and the graft
    manager treat all technologies identically. {!regime} is the one
    place that says which mechanism implements a technology:

    - native regimes (C / Modula-3 / SFI analogues) close over the
      functor instances from {!Graft_grafts};
    - VM technologies load the GEL source from
      {!Graft_grafts.Gel_sources} as a module (front end, compile,
      verify) found or loaded in a module table, and enter it per call
      through an instance: the graft's own memory, host closures (its
      graft maps are reached through the typed helpers among them) and
      session over the module's code. A kernel's table
      ({!Manager.modules}) loads each distinct module once;
    - the source interpreter evaluates the Tcl source from
      {!Graft_grafts.Script_sources} once and invokes its procs per
      call.

    Both interpreted regimes load into one {!loaded} record, so each
    paper graft has one interpreted runner. A graft's fault leaves a
    runner as the graft's own [Fault.t], so the manager's barrier
    files it under its true class.

    [Upcall_server] is not a wall-clock runner — its cost is a
    protection-boundary charge analysed by {!Breakeven} and simulated
    by {!Graft_kernel.Upcall}; asking for a runner raises
    [Invalid_argument]. *)

open Graft_mem
open Graft_gel
open Graft_grafts

let huge_fuel = max_int / 2

let rec next_pow2_from n acc = if acc >= n then acc else next_pow2_from n (acc * 2)
let next_pow2 n = next_pow2_from n 1024

(* [name]'s index in [ir], the IR a tier compiled. A bad entry point is
   the caller's mistake, not the graft's. *)
let resolve ir name ~nargs =
  match Ir.entry ir name ~nargs with
  | Ok fn -> fn
  | Error msg -> invalid_arg ("bad graft entry point: " ^ msg)

let script_fail = function Ok v -> v | Error f -> Fault.raise_fault f

(* ------------------------------------------------------------------ *)
(* The regime table.                                                   *)
(* ------------------------------------------------------------------ *)

type regime =
  | Native of (module Access.S)
  | Vm
  | Script
  | Filter_vm
  | Upcall

let regime : Technology.t -> regime = function
  | Technology.Unsafe_c -> Native (module Access.Unsafe)
  | Technology.Safe_lang -> Native (module Access.Checked)
  | Technology.Safe_lang_nil -> Native (module Access.Checked_nil)
  | Technology.Sfi_write_jump -> Native (module Access.Sfi_wj)
  | Technology.Sfi_full -> Native (module Access.Sfi_full)
  | Technology.Bytecode_vm | Technology.Bytecode_opt
  | Technology.Safe_lang_static | Technology.Jit | Technology.Ast_interp ->
      Vm
  | Technology.Source_interp -> Script
  | Technology.Specialized_vm -> Filter_vm
  | Technology.Upcall_server -> Upcall

(* ------------------------------------------------------------------ *)
(* Shared GEL plumbing.                                                *)
(* ------------------------------------------------------------------ *)

type gel_env = { image : Link.image; windows : (string * Memory.region) list }

(* Map each (name, length, writable) window into [mem], in order. *)
let alloc_windows mem windows =
  List.map
    (fun (name, len, writable) ->
      let perm = if writable then Memory.perm_rw else Memory.perm_ro in
      (name, Memory.alloc mem ~name ~len ~perm))
    windows

let window_cells windows =
  List.fold_left (fun acc (_, len, _) -> acc + len) 0 windows

(* The GEL front end for [tech]: the IR optimizer runs for bytecode-opt
   alone, as that tier's pre-pass. *)
let optimizes tech = tech = Technology.Bytecode_opt

let compile_ir ~optimize source =
  match Gel.compile ~optimize source with
  | Ok p -> p
  | Error e -> failwith ("GEL graft does not compile: " ^ Srcloc.to_string e)

(* Link [prog] into a fresh power-of-two memory with the given shared
   windows. *)
let link_env ~hosts prog windows =
  let size = next_pow2 (Link.footprint prog + window_cells windows + 64) in
  let mem = Memory.create size in
  let regions = alloc_windows mem windows in
  match Link.link prog ~mem ~shared:regions ~hosts with
  | Ok image -> { image; windows = regions }
  | Error msg -> failwith ("GEL graft does not link: " ^ msg)

(** Compile [source] for [tech] and link it into a fresh power-of-two
    memory with the given shared windows (name, length, writable).
    [hosts] resolves extern declarations (e.g. the graft-map helper
    dispatchers from {!Graft_kernel.Graftmap.hosts}). *)
let gel_env ?(hosts = []) (tech : Technology.t) source windows =
  link_env ~hosts (compile_ir ~optimize:(optimizes tech) source) windows

let window env name =
  match List.assoc_opt name env.windows with
  | Some r -> r
  | None -> invalid_arg ("no GEL window " ^ name)

(** Adapt {!Graft_kernel.Graftmap.hosts} dispatchers to GEL hosts. *)
let map_hosts maps =
  List.map
    (fun (hname, hfn) -> { Link.hname; hfn })
    (Graft_kernel.Graftmap.hosts maps)

type engine = fn:int -> args:int array -> int

(* ------------------------------------------------------------------ *)
(* The tier table, in two halves: [load_code] is what a tier derives   *)
(* from the code alone, [start] one tenant's session over it.          *)
(* ------------------------------------------------------------------ *)

type code =
  | Tree  (** ast-interp: the linked IR itself, once the gate admits it *)
  | Stack of Graft_stackvm.Program.t
  | Jitted of Graft_jit.Jit.t
  | Reg of Graft_regvm.Program.t

let load_code ~bounded (tech : Technology.t) (image : Link.image) =
  match tech with
  | Technology.Ast_interp ->
      (* No bytecode verifier on this tier: the gate is the same typed
         helper table plus the IR-level bound derivation the bytecode
         verifiers repeat at machine level. *)
      (match Graft_analysis.Loopbound.gate ~bounded image with
      | Ok () -> ()
      | Error msg -> failwith ("GEL graft rejected: " ^ msg));
      Tree
  | Technology.Bytecode_vm ->
      Stack (Graft_stackvm.Stackvm.load_exn ~bounded image)
  | Technology.Bytecode_opt ->
      (* Peephole-fused code runs on the same loop as plain code. *)
      Stack (Graft_stackvm.Stackvm.load_opt_exn ~bounded image)
  | Technology.Safe_lang_static ->
      Stack (Graft_stackvm.Stackvm.load_static_exn ~bounded image)
  | Technology.Jit ->
      (* Graftjit: static-tier elisions, then the block plan. *)
      Jitted (Graft_jit.Jit.load_exn ~bounded image)
  | Technology.Sfi_write_jump | Technology.Sfi_full ->
      (* The register-VM route, used for the A4 instruction-count
         ablation; headline SFI numbers come from the native masked
         regimes. [bounded] arms the machine-level window check. *)
      let protection =
        if tech = Technology.Sfi_full then Graft_regvm.Program.Full
        else Graft_regvm.Program.Write_jump
      in
      Reg (Graft_regvm.Regvm.load_exn ~protection ~bounded image)
  | t ->
      invalid_arg ("Runners.engine: not a VM technology: " ^ Technology.name t)

(* A session over [code] for the tenant whose linked image is [image],
   its maps reached through the image's hosts: each call enters it
   with [fuel] and raises the graft's fault. *)
let start ?profile ~fuel code (image : Link.image) : engine =
  let cells = Memory.cells image.Link.mem and host = image.Link.host in
  let stack p =
    let p = Graft_stackvm.Program.instantiate p ~cells ~host in
    let session = Graft_stackvm.Vm.create_session ?profile p in
    fun ~fn ~args -> Graft_stackvm.Vm.run_session session ~fn ~args ~fuel
  in
  match code with
  | Tree ->
      let session = Interp.create_session image in
      fun ~fn ~args -> Interp.run_session session ~fn ~args ~fuel
  | Stack p -> stack p
  | Jitted t when profile = None ->
      (* The session compiles the blocks to closures once; entries are
         cheap. *)
      let t = Graft_jit.Jit.instantiate t ~cells ~host in
      let session = Graft_jit.Jit.create_session t in
      fun ~fn ~args -> Graft_jit.Jit.run_session session ~fn ~args ~fuel
  | Jitted t ->
      (* A JIT profile is read from the static-tier interpreter: the JIT
         compiles that program and, by its parity obligation, executes
         the same opcodes with the same fuel. *)
      stack (Graft_jit.Jit.program t)
  | Reg p ->
      let p = Graft_regvm.Program.instantiate p ~cells ~host in
      let session = Graft_regvm.Machine.create_session ?profile p in
      fun ~fn ~args -> Graft_regvm.Machine.run_session session ~fn ~args ~fuel

(** The tier table: the one place that maps a VM technology to its
    loader and engine. Loading (verify, and compile where the tier
    compiles) happens once, here; each call enters a resident session
    with [fuel]. [bounded] makes every tier's verifier admit a
    backward jump only as the back edge of a loop whose bound it
    derives from the code (the reference interpreter gates on the
    IR-level {!Graft_analysis.Loopbound} check at construction);
    [profile] counts executed opcodes on the tiers that keep a profile
    (all but the reference interpreter). *)
let engine ?(bounded = false) ?profile ~fuel (tech : Technology.t)
    (image : Link.image) : engine =
  start ?profile ~fuel (load_code ~bounded tech image) image

(* ------------------------------------------------------------------ *)
(* Modules and instances.                                              *)
(* ------------------------------------------------------------------ *)

(* Every input a load reads, compared structurally. The hosts, and
   the maps they reach, are the instance's. *)
type key = {
  k_tech : Technology.t;
  k_source : string;
  k_windows : (string * int * bool) list;
  k_bounded : bool;
}

(* What a link fixes and the verified code assumes. *)
type layout = {
  global_base : int;
  arr_base : int array;
  arr_len : int array;
  arr_writable : bool array;
  mem_size : int;
}

let layout_of (image : Link.image) =
  {
    global_base = image.Link.global_base;
    arr_base = image.Link.arr_base;
    arr_len = image.Link.arr_len;
    arr_writable = image.Link.arr_writable;
    mem_size = Memory.size image.Link.mem;
  }

type gel_module = { ir : Ir.program; layout : layout; code : code }

type modules = {
  fronts : (string * bool, Ir.program) Hashtbl.t;
      (** IR by (source, optimized): every tier that compiles the same
          source shares it *)
  loaded : (key, gel_module) Hashtbl.t;
}

let create_modules () =
  { fronts = Hashtbl.create 8; loaded = Hashtbl.create 32 }

let module_count t = Hashtbl.length t.loaded

let rec front_end t ~optimize source =
  match Hashtbl.find_opt t.fronts (source, optimize) with
  | Some ir -> ir
  | None ->
      let ir =
        if optimize then Optimize.program (front_end t ~optimize:false source)
        else compile_ir ~optimize:false source
      in
      Hashtbl.add t.fronts (source, optimize) ir;
      ir

(* A module owns its image: scratch cells and hosts that are never
   called, so it holds no tenant's state. *)
let never_called _ _ = invalid_arg "Runners: a module's own hosts never run"

(** The module [tech] loads from [source] with [windows] mapped, from
    [t] if it is there; loaded into [t] otherwise. Raises [Failure] if
    the graft is rejected. *)
let load_module t ?(bounded = false) (tech : Technology.t) source windows =
  let key =
    { k_tech = tech; k_source = source; k_windows = windows; k_bounded = bounded }
  in
  match Hashtbl.find_opt t.loaded key with
  | Some m -> m
  | None ->
      let ir = front_end t ~optimize:(optimizes tech) source in
      let hosts =
        Array.to_list
          (Array.map
             (fun (e : Ir.ext) -> { Link.hname = e.Ir.ename; hfn = never_called })
             ir.Ir.externs)
      in
      let env = link_env ~hosts ir windows in
      let code = load_code ~bounded tech env.image in
      let m = { ir; layout = layout_of env.image; code } in
      Hashtbl.add t.loaded key m;
      m

(* ------------------------------------------------------------------ *)
(* Loaded interpreted grafts: the GEL tiers and the Tcl interpreter.   *)
(* ------------------------------------------------------------------ *)

type loaded = {
  cells : int array;
  shared : (string * Memory.region) list;
  entry : string -> nargs:int -> int array -> int;
}

let base g name = (List.assoc name g.shared).Memory.base

(** One tenant's instance of [m]: its IR linked into a fresh memory
    with [windows] and [hosts] (the tenant's map helpers among them),
    and a session over [m]'s code. A link whose layout differs from the
    module's is refused with [Failure]: the code was verified for the
    module's. *)
let instantiate ?(hosts = []) ?(fuel = huge_fuel) m windows =
  let env = link_env ~hosts m.ir windows in
  if layout_of env.image <> m.layout then
    failwith "GEL graft instance: its link's layout differs from its module's";
  let run = start ~fuel m.code env.image in
  let entry name ~nargs =
    let fn = resolve m.ir name ~nargs in
    fun args -> run ~fn ~args
  in
  { cells = Memory.cells env.image.Link.mem; shared = env.windows; entry }

(* Every GEL runner: find or load the module, then instantiate it. A
   caller without a kernel's table loads into a fresh one. *)
let gel_graft ?(modules = create_modules ()) ?hosts ?bounded ?fuel tech source
    windows =
  instantiate ?hosts ?fuel (load_module modules ?bounded tech source windows)
    windows

(* Each call starts on a fresh [fuel] budget, as a VM session does. *)
let tcl_graft ?(fuel = huge_fuel) ?(init = ignore) source windows =
  let module S = Graft_script.Script in
  let mem = Memory.create (window_cells windows + 8) in
  let t = S.create ~fuel mem in
  let shared = alloc_windows mem windows in
  List.iter
    (fun (name, r) ->
      S.bind_array t ~name r ~writable:r.Memory.perm.Memory.write)
    shared;
  init t;
  ignore (script_fail (S.eval t source));
  {
    cells = Memory.cells mem;
    shared;
    entry =
      (fun name ~nargs:_ args ->
        S.set_fuel t fuel;
        let args = List.map string_of_int (Array.to_list args) in
        int_of_string (script_fail (S.call t name args)));
  }

(* ------------------------------------------------------------------ *)
(* Page eviction.                                                      *)
(* ------------------------------------------------------------------ *)

type evict = {
  e_tech : Technology.t;
  refresh : hot:int array -> lru:int array -> unit;
      (** lay the application hot list and kernel LRU chain into the
          graft's shared window *)
  contains : int -> bool;  (** hot-list membership — the timed op *)
  choose : unit -> int;  (** full victim selection over the LRU chain *)
}

(** Cells needed for [capacity_nodes] list nodes. *)
let evict_cells capacity_nodes = 1 + (2 * capacity_nodes)

(* The one refresh: build a fresh layout, copy it into [cells] from
   [at], and track both list heads. *)
let evict_refresh ~capacity_nodes ~rng cells at =
  let hot_head = ref 0 and lru_head = ref 0 in
  let refresh ~hot ~lru =
    if Array.length hot + Array.length lru > capacity_nodes then
      invalid_arg "Runners.evict: refresh exceeds runner capacity";
    let l =
      Listlayout.build ?rng ~cells_len:(evict_cells capacity_nodes) ~hot ~lru ()
    in
    Array.blit l.Listlayout.cells 0 cells at (Array.length l.Listlayout.cells);
    hot_head := l.Listlayout.hot_head;
    lru_head := l.Listlayout.lru_head
  in
  (refresh, hot_head, lru_head)

let native_evict (module A : Access.S) tech ~capacity_nodes ~rng =
  let module E = Evict.Make (A) in
  (* SFI regimes mask into the container, so its length must be a
     power of two. *)
  let cells = Array.make (next_pow2 (evict_cells capacity_nodes)) 0 in
  let refresh, hot_head, lru_head =
    evict_refresh ~capacity_nodes ~rng cells 0
  in
  {
    e_tech = tech;
    refresh;
    contains = (fun page -> E.contains cells ~head:!hot_head ~page);
    choose =
      (fun () -> E.choose_victim cells ~lru_head:!lru_head ~hot_head:!hot_head);
  }

let interp_evict tech ~capacity_nodes ~rng g =
  let refresh, hot_head, lru_head =
    evict_refresh ~capacity_nodes ~rng g.cells (base g "heap")
  in
  let contains = g.entry "contains" ~nargs:2
  and choose = g.entry "choose" ~nargs:2 in
  {
    e_tech = tech;
    refresh;
    contains = (fun page -> contains [| !hot_head; page |] <> 0);
    choose = (fun () -> choose [| !lru_head; !hot_head |]);
  }

(** [evict tech ~capacity_nodes ()] builds a runner able to hold up to
    [capacity_nodes] list nodes; call [refresh] to install lists.
    [rng] shuffles node placement so traversal is a pointer chase. *)
let evict ?modules ?rng (tech : Technology.t) ~capacity_nodes () : evict =
  let cells_len = evict_cells capacity_nodes in
  let heap = [ ("heap", cells_len, false) ] in
  match regime tech with
  | Native a -> native_evict a tech ~capacity_nodes ~rng
  | Vm ->
      interp_evict tech ~capacity_nodes ~rng
        (gel_graft ?modules tech (Gel_sources.evict ~heap_cells:cells_len) heap)
  | Script ->
      interp_evict tech ~capacity_nodes ~rng
        (tcl_graft Script_sources.evict heap)
  | Upcall -> invalid_arg "Runners.evict: upcall cost is analysed by Breakeven"
  | Filter_vm ->
      invalid_arg
        "Runners.evict: a packet-filter VM cannot express list traversal \
         (the paper's specialized-language expressiveness limit)"

(** The register-VM variant of the eviction graft, for the A4 ablation
    (instruction counts with and without sandboxing; [~elide:true] adds
    the verified mask-elision rows). Returns a function from candidate
    page to (membership, instruction count). *)
let evict_regvm ?rng ?elide ~protection ~capacity_nodes () =
  let cells_len = evict_cells capacity_nodes in
  (* Any register-VM technology: at every protection the register VM
     runs the unoptimized IR. *)
  let env =
    gel_env Technology.Sfi_write_jump
      (Gel_sources.evict ~heap_cells:cells_len)
      [ ("heap", cells_len, false) ]
  in
  let refresh, hot_head, _ =
    evict_refresh ~capacity_nodes ~rng
      (Memory.cells env.image.Link.mem)
      (window env "heap").Memory.base
  in
  let p = Graft_regvm.Regvm.load_exn ~protection ?elide env.image in
  let session = Graft_regvm.Machine.create_session p in
  let fn = resolve env.image.Link.prog "contains" ~nargs:2 in
  let contains page =
    let v =
      Graft_regvm.Machine.run_session session ~fn ~args:[| !hot_head; page |]
        ~fuel:huge_fuel
    in
    (v <> 0, Graft_regvm.Machine.instructions session)
  in
  (refresh, contains)

(** The hardware-protection path: the eviction graft lives in a
    user-level server. The handler itself is the native unsafe graft
    (user-level code needs no checks — that is the model's appeal); the
    kernel pays a simulated upcall per invocation, charged to the
    domain's clock, plus marshalling for the exported lists. Wall-clock
    measurements of this runner capture only the native handler; the
    boundary cost lives on the simulated clock, which is how Figure 1
    combines them. *)
let evict_upcall ?rng ~(domain : Graft_kernel.Upcall.domain) ~capacity_nodes ()
    : evict =
  let inner = native_evict (module Access.Unsafe) Technology.Upcall_server ~capacity_nodes ~rng in
  let last_words = ref 0 in
  {
    e_tech = Technology.Upcall_server;
    refresh =
      (fun ~hot ~lru ->
        (* The kernel must copy both lists into the server's space. *)
        last_words := 2 * (Array.length hot + Array.length lru);
        inner.refresh ~hot ~lru);
    contains =
      (fun page ->
        Graft_kernel.Upcall.upcall domain ~extra_words:!last_words
          (fun args -> if inner.contains args.(0) then 1 else 0)
          [| page |]
        <> 0);
    choose =
      (fun () ->
        Graft_kernel.Upcall.upcall domain ~extra_words:!last_words
          (fun _ -> inner.choose ())
          [||]);
  }

(* ------------------------------------------------------------------ *)
(* MD5 fingerprinting.                                                 *)
(* ------------------------------------------------------------------ *)

type md5 = {
  m_tech : Technology.t;
  load : bytes -> unit;
      (** kernel-side copy into the graft's space; raises
          [Invalid_argument] for a chunk longer than the capacity *)
  compute : int -> unit;  (** fingerprint the first n bytes — timed *)
  digest_hex : unit -> string;
}

(* A chunk longer than [capacity] would run past the graft's data
   window into the cells laid out after it (the digest, then the MD5
   tables), so every tier rejects it before copying. *)
let check_chunk ~capacity data =
  if Bytes.length data > capacity then
    invalid_arg
      (Printf.sprintf "Runners.md5: %d-byte chunk exceeds capacity %d"
         (Bytes.length data) capacity)

let native_md5 (module A : Access.S) tech ~capacity =
  let module M = Md5_graft.Make (A) in
  let buf = Bytes.create capacity in
  let last = ref "" in
  {
    m_tech = tech;
    load =
      (fun data ->
        check_chunk ~capacity data;
        Bytes.blit data 0 buf 0 (Bytes.length data));
    compute =
      (fun n -> last := M.digest ~len:n buf);
    digest_hex = (fun () -> Graft_md5.Md5.to_hex !last);
  }

let digest_hex_of_cells cells base =
  let buf = Buffer.create 32 in
  for i = 0 to 15 do
    Buffer.add_string buf (Printf.sprintf "%02x" (cells.(base + i) land 0xFF))
  done;
  Buffer.contents buf

(* Copy the first [len] bytes of [data] into [cells] from [base],
   straight from the caller's buffer. The length is checked once, so
   the per-byte loop carries only the [cells] bounds check. *)
let load_bytes_into_cells cells base data len =
  if len > Bytes.length data then invalid_arg "Runners.load_bytes_into_cells";
  for i = 0 to len - 1 do
    cells.(base + i) <- Char.code (Bytes.unsafe_get data i)
  done

let interp_md5 tech ~capacity g =
  let data_at = base g "data" and digest_at = base g "digest" in
  let run = g.entry "run" ~nargs:1 in
  {
    m_tech = tech;
    load =
      (fun data ->
        check_chunk ~capacity data;
        load_bytes_into_cells g.cells data_at data (Bytes.length data));
    compute = (fun n -> ignore (run [| n |]));
    digest_hex = (fun () -> digest_hex_of_cells g.cells digest_at);
  }

(** [md5 tech ~capacity] builds a fingerprinting runner over a buffer
    of [capacity] bytes (a power of two for the SFI regimes). *)
let md5 ?modules (tech : Technology.t) ~capacity : md5 =
  let data_cells = capacity + 128 in
  let io = [ ("data", data_cells, true); ("digest", 16, true) ] in
  match regime tech with
  | Native a -> native_md5 a tech ~capacity
  | Vm ->
      interp_md5 tech ~capacity
        (gel_graft ?modules tech (Gel_sources.md5 ~data_cells) io)
  | Script ->
      (* The Tcl graft keeps the MD5 tables and its block scratch in
         kernel windows too: Tcl 3.7 has no arrays of its own. *)
      let g =
        tcl_graft Script_sources.md5
          (io @ [ ("t", 64, false); ("s", 64, false); ("x", 16, true) ])
      in
      Array.blit Md5_graft.t_table 0 g.cells (base g "t") 64;
      Array.blit Md5_graft.s_table 0 g.cells (base g "s") 64;
      interp_md5 tech ~capacity g
  | Upcall -> invalid_arg "Runners.md5: upcall cost is analysed by Breakeven"
  | Filter_vm ->
      invalid_arg
        "Runners.md5: a packet-filter VM has no loops or stores and cannot \
         express MD5"

(* ------------------------------------------------------------------ *)
(* Logical disk.                                                       *)
(* ------------------------------------------------------------------ *)

(** Dynamic instruction count of [writes] logical-disk mapped writes
    on the register VM at the given protection level (ablation A4's
    store-heavy case). *)
let logdisk_regvm_instructions ?elide ~protection ~nblocks ~writes () =
  (* As in [evict_regvm]: the unoptimized IR at every protection. *)
  let env = gel_env Technology.Sfi_write_jump (Gel_sources.logdisk ~nblocks) [] in
  let p = Graft_regvm.Regvm.load_exn ~protection ?elide env.image in
  let session = Graft_regvm.Machine.create_session p in
  let fn = resolve env.image.Link.prog "map_write" ~nargs:1 in
  let map_write block =
    ignore
      (Graft_regvm.Machine.run_session session ~fn ~args:[| block |]
         ~fuel:huge_fuel);
    Graft_regvm.Machine.instructions session
  in
  (* First call triggers the graft's lazy map initialization; exclude
     it so the counts reflect steady-state writes. *)
  ignore (map_write 0);
  let total = ref 0 in
  for i = 1 to writes do
    total := !total + map_write (i mod nblocks)
  done;
  !total

(** [logdisk_policy tech ~nblocks] builds a mapping-policy graft for
    {!Graft_kernel.Logdisk.run}. [nblocks] must be a power of two for
    the SFI regimes. *)
let logdisk_policy (tech : Technology.t) ~nblocks : Graft_kernel.Logdisk.policy
    =
  let interpreted g =
    let map_write = g.entry "map_write" ~nargs:1
    and lookup = g.entry "lookup" ~nargs:1 in
    {
      Graft_kernel.Logdisk.pname = Technology.name tech;
      map_write = (fun logical -> map_write [| logical |]);
      lookup = (fun logical -> lookup [| logical |]);
    }
  in
  match regime tech with
  | Native (module A) ->
      let module L = Logdisk_graft.Make (A) in
      L.make_policy ~nblocks ()
  | Vm -> interpreted (gel_graft tech (Gel_sources.logdisk ~nblocks) [])
  | Script ->
      let g =
        tcl_graft
          ~init:(fun t ->
            Graft_script.Script.define_variable t "nblocks"
              (string_of_int nblocks);
            Graft_script.Script.define_variable t "next_free" "0")
          Script_sources.logdisk
          [ ("map", nblocks, true) ]
      in
      Array.fill g.cells (base g "map") nblocks (-1);
      interpreted g
  | Upcall ->
      invalid_arg
        "Runners.logdisk_policy: upcall cost is analysed by Breakeven"
  | Filter_vm ->
      invalid_arg
        "Runners.logdisk_policy: a packet-filter VM cannot maintain a \
         mapping (no stores)"

(* ------------------------------------------------------------------ *)
(* Packet filter.                                                      *)
(* ------------------------------------------------------------------ *)

let pkt_window_cells = 2048
let pkt_window = [ ("pkt", pkt_window_cells, false) ]

(* Copy each packet into the graft's window (a graft address space
   cannot alias kernel mbufs), then enter [entry] with its length. *)
let staged_packet g ~entry =
  let cells = g.cells and at = base g "pkt" in
  let call = g.entry entry ~nargs:1 in
  fun (pkt : Graft_kernel.Netpkt.t) ->
    let data = pkt.Graft_kernel.Netpkt.data in
    let len = min (Bytes.length data) pkt_window_cells in
    load_bytes_into_cells cells at data len;
    call [| len |]

(** [packet_filter tech ~protocol ~port] builds the canonical demux
    predicate ("ip and protocol and dst port") for the given
    technology. The native regimes and the specialized filter VM read
    the packet in place; the general-purpose VM technologies receive a
    copy in their packet window first, which is part of their cost
    model (a graft address space cannot alias kernel mbufs). *)
let packet_filter (tech : Technology.t) ~protocol ~port :
    Graft_kernel.Netpkt.t -> bool =
  let interpreted g =
    let accept = staged_packet g ~entry:"accept" in
    fun pkt -> accept pkt <> 0
  in
  match regime tech with
  | Native (module A) when Technology.trust tech = Technology.Software_isolation
    ->
      (* The masking regimes need a power-of-two container: the kernel
         stages each packet into the graft's sandbox buffer, as real SFI
         modules cannot alias kernel mbufs either. *)
      let module F = Pkt_filter.Make (A) in
      let staged = Bytes.make pkt_window_cells '\000' in
      fun (pkt : Graft_kernel.Netpkt.t) ->
        let data = pkt.Graft_kernel.Netpkt.data in
        let len = min (Bytes.length data) pkt_window_cells in
        Bytes.blit data 0 staged 0 len;
        F.proto_dst_port ~protocol ~port staged ~len
  | Native (module A) ->
      let module F = Pkt_filter.Make (A) in
      fun (pkt : Graft_kernel.Netpkt.t) ->
        let data = pkt.Graft_kernel.Netpkt.data in
        F.proto_dst_port ~protocol ~port data ~len:(Bytes.length data)
  | Filter_vm ->
      let p = Graft_kernel.Pfvm.proto_dst_port ~protocol ~port in
      (match Graft_kernel.Pfvm.verify p with
      | Ok () -> ()
      | Error msg -> failwith ("packet filter failed verification: " ^ msg));
      fun pkt -> Graft_kernel.Pfvm.accepts p pkt
  | Vm ->
      interpreted
        (gel_graft tech
           (Gel_sources.packet_filter ~window_cells:pkt_window_cells ~protocol
              ~port)
           pkt_window)
  | Script ->
      interpreted
        (tcl_graft (Script_sources.packet_filter ~protocol ~port) pkt_window)
  | Upcall ->
      invalid_arg "Runners.packet_filter: upcall cost is analysed by Breakeven"

(* ------------------------------------------------------------------ *)
(* Graftgate: stateful demux and hot-set grafts over graft maps.       *)
(* ------------------------------------------------------------------ *)

type demux = {
  d_tech : Technology.t;
  demux : Graft_kernel.Netpkt.t -> int;
      (** [scan * 1024 + count] for accepted packets, 0 otherwise *)
  d_conn : Graft_kernel.Graftmap.t;
      (** the runner's private 64-entry connection-counter map *)
}

(** [demux tech ~protocol ~marker] builds the stateful connection demux
    for the given technology: per-connection packet counters live in a
    fresh 64-entry array map, the payload marker scan is a certified
    bounded loop, and every tier loads with [~bounded:true] — the
    backward jump is accepted only because each verifier derives the
    scan loop's trip count from its own code. *)
let demux ?modules (tech : Technology.t) ~protocol ~marker : demux =
  let conn = Graft_kernel.Graftmap.create_array ~name:"conn" 64 in
  let fn =
    match tech with
    | Technology.Ast_interp | Technology.Bytecode_vm | Technology.Bytecode_opt
    | Technology.Safe_lang_static | Technology.Jit | Technology.Sfi_write_jump
    | Technology.Sfi_full ->
        staged_packet ~entry:"demux"
          (gel_graft ?modules ~hosts:(map_hosts [| conn |]) ~bounded:true tech
             (Gel_sources.demux ~window_cells:pkt_window_cells ~protocol
                ~marker)
             pkt_window)
    | Technology.Specialized_vm ->
        let scratch = Graft_kernel.Graftmap.create_array ~name:"scratch" 1 in
        let maps = [| conn; scratch |] in
        let p = Graft_kernel.Pfvm.demux_conn ~protocol ~marker in
        (match Graft_kernel.Pfvm.verify ~nmaps:(Array.length maps) p with
        | Ok () -> ()
        | Error msg -> failwith ("demux filter failed verification: " ^ msg));
        fun pkt -> Graft_kernel.Pfvm.run ~maps p pkt
    | t ->
        invalid_arg ("Runners.demux: not a demux technology: " ^ Technology.name t)
  in
  { d_tech = tech; demux = fn; d_conn = conn }

type hotset = {
  h_tech : Technology.t;
  touch : int -> int;  (** count an access; returns the page's count *)
  hot : int -> bool;  (** is the page still resident in the LRU map? *)
  h_map : Graft_kernel.Graftmap.t;  (** the runner's private LRU map *)
}

(** [hotset tech ~capacity] builds the hot-set tracking graft over a
    fresh LRU map of the given capacity. Eviction policy lives in the
    kernel's map object; the graft itself is loop-free and loads with
    [~bounded:true] on every tier. *)
let hotset ?modules (tech : Technology.t) ~capacity : hotset =
  let m = Graft_kernel.Graftmap.create_lru ~name:"hotset" capacity in
  let g =
    gel_graft ?modules ~hosts:(map_hosts [| m |]) ~bounded:true tech
      Gel_sources.hotset []
  in
  let touch = g.entry "touch" ~nargs:1 and hot = g.entry "hot" ~nargs:1 in
  {
    h_tech = tech;
    touch = (fun page -> touch [| page |]);
    hot = (fun page -> hot [| page |] <> 0);
    h_map = m;
  }
