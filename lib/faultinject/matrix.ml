(** The executable protection matrix.

    For every (technology × fault class) cell, {!build} runs the
    {!Sabotage} saboteur and records the observed containment next to
    the outcome the paper predicts for that trust model. The matrix is
    a test artifact ([dune runtest] asserts every cell) and a report
    artifact ([graftkit protect] prints it, [--json] for CI).

    The predictions are the paper's section-4 claims made executable:

    - {e unsafe C}: every fault class is a kernel crash — wild stores
      corrupt kernel memory silently, a divide trap fires in kernel
      mode, and nothing preempts a runaway loop;
    - {e upcall server}: every fault dies in the server's own address
      space; the kernel restarts it and answers the request itself;
    - {e safe languages and VMs}: compiled or interpreted checks turn
      every fault into an exception at the manager barrier;
    - {e SFI}: wild and NIL stores are {e masked} into the sandbox —
      no fault is even raised — while divide, fuel, and I/O faults
      still reach the barrier as exceptions;
    - {e specialized filter VM}: the saboteur cannot be expressed or
      is rejected by the load-time verifier. *)

open Graft_core

type cell = {
  tech : Technology.t;
  fault : Faultinject.fault_class;
  predicted : Sabotage.outcome;
  observed : Sabotage.observation;
}

let cell_ok c = c.predicted = c.observed.Sabotage.outcome

(** The paper-predicted outcome for one cell. *)
let predicted tech (fault : Faultinject.fault_class) : Sabotage.outcome =
  match (tech, fault) with
  | _, Faultinject.Server_death when tech <> Technology.Upcall_server ->
      Sabotage.Not_applicable
  | Technology.Unsafe_c, _ -> Sabotage.Panic
  | Technology.Upcall_server, _ -> Sabotage.Server_restart
  | Technology.Specialized_vm, _ -> Sabotage.Load_rejected
  | (Technology.Sfi_write_jump | Technology.Sfi_full),
    (Faultinject.Wild_store | Faultinject.Nil_deref) ->
      Sabotage.Masked
  (* Graftgate: a backward jump with no derivable bound never reaches
     execution on a verified tier — every bounded loader (IR gate,
     stack VM, JIT, register VM) rejects it at load. Map misuse, by
     contrast, is a runtime fault: the kernel's map object checks the
     key and the barrier quarantines, even under SFI (a kernel-object
     fault is not a store to be masked). *)
  | ( ( Technology.Ast_interp | Technology.Bytecode_vm
      | Technology.Bytecode_opt | Technology.Safe_lang_static
      | Technology.Jit | Technology.Sfi_write_jump | Technology.Sfi_full ),
      Faultinject.Runaway_loop ) ->
      Sabotage.Load_rejected
  | _ -> Sabotage.Exception_barrier

let technologies = Technology.all

let build () =
  List.concat_map
    (fun tech ->
      List.map
        (fun fault ->
          {
            tech;
            fault;
            predicted = predicted tech fault;
            observed = Sabotage.run_cell tech fault;
          })
        Faultinject.all_classes)
    technologies

let mismatches cells = List.filter (fun c -> not (cell_ok c)) cells

(* ------------------------------------------------------------------ *)
(* The fallback demonstration: disable -> backoff -> re-enable ->      *)
(* quarantine, with the VM subsystem serving pages throughout.         *)
(* ------------------------------------------------------------------ *)

type fallback_demo = {
  phases : string list;  (** supervision states in observation order *)
  accesses : int;  (** page accesses served *)
  evictions : int;  (** evictions performed (kernel or graft) *)
  graft_faults : int;  (** faults absorbed by the barrier *)
  kernel_fallbacks : int;  (** evictions answered by the default path *)
  vm_invariant_ok : bool;
  panicked : bool;  (** must be false: that is the whole point *)
}

(** Attach an eviction graft that faults on every call under a
    two-strike policy, then keep the VM subsystem under load. The
    graft walks disable -> backoff -> re-enable -> quarantine while
    the kernel keeps evicting its own LRU candidates; service never
    stops and nothing panics. *)
let run_fallback_demo () =
  let vm =
    Graft_kernel.Vmsys.create
      { Graft_kernel.Vmsys.nframes = 4; npages = 64; pages_per_fault = 1 }
  in
  let mgr = Manager.create () in
  let g =
    Manager.register mgr ~name:"jail-demo" ~tech:Technology.Safe_lang
      ~structure:Taxonomy.Prioritization ~motivation:Taxonomy.Policy
      ~policy:
        { Manager.max_faults = 2; backoff_base = 2; backoff_factor = 2;
          max_strikes = 2 }
      ()
  in
  let faulty : Runners.evict =
    {
      Runners.e_tech = Technology.Safe_lang;
      refresh = (fun ~hot:_ ~lru:_ -> ());
      contains = (fun _ -> false);
      choose =
        (fun () ->
          Graft_mem.Fault.raise_fault
            (Graft_mem.Fault.Out_of_bounds
               { access = Graft_mem.Fault.Write; addr = 0xDEAD }));
    }
  in
  Manager.attach_evict mgr ~graft_name:"jail-demo" vm faulty
    ~hot_pages:(fun () -> [| 1; 2 |]);
  let phases = ref [ Manager.state_name g.Manager.state ] in
  let note_phase () =
    let s = Manager.state_name g.Manager.state in
    match !phases with
    | last :: _ when last = s -> ()
    | _ -> phases := s :: !phases
  in
  let accesses = ref 0 in
  let panicked = ref false in
  (* A page walk wide enough to ride through both strikes: every
     access past the resident set evicts, each eviction invokes the
     graft (or the fallback) once. *)
  (try
     for round = 1 to 4 do
       for page = 1 to 8 do
         incr accesses;
         ignore (Graft_kernel.Vmsys.access vm (8 * (round mod 2) + page));
         note_phase ()
       done
     done
   with Manager.Kernel_panic _ -> panicked := true);
  let stats = Graft_kernel.Vmsys.stats vm in
  {
    phases = List.rev !phases;
    accesses = !accesses;
    evictions = stats.Graft_kernel.Vmsys.evictions;
    graft_faults = g.Manager.total_faults;
    kernel_fallbacks = g.Manager.fallbacks;
    vm_invariant_ok = Graft_kernel.Vmsys.invariant_ok vm;
    panicked = !panicked;
  }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let render cells =
  let faults = Faultinject.all_classes in
  let headers =
    Array.of_list
      ("technology" :: List.map Faultinject.class_name faults)
  in
  let t = Graft_util.Tablefmt.create headers in
  List.iter
    (fun tech ->
      let row =
        Technology.name tech
        :: List.map
             (fun f ->
               match
                 List.find_opt (fun c -> c.tech = tech && c.fault = f) cells
               with
               | None -> "?"
               | Some c ->
                   let o = Sabotage.outcome_name c.observed.Sabotage.outcome in
                   if cell_ok c then o else "MISMATCH:" ^ o)
             faults
      in
      Graft_util.Tablefmt.add_row t (Array.of_list row))
    technologies;
  Graft_util.Tablefmt.render t

let render_demo (d : fallback_demo) =
  Printf.sprintf
    "fallback demo: %s | %d accesses, %d evictions, %d graft faults, %d \
     kernel fallbacks, vm invariant %s, panic %b"
    (String.concat " -> " d.phases)
    d.accesses d.evictions d.graft_faults d.kernel_fallbacks
    (if d.vm_invariant_ok then "ok" else "VIOLATED")
    d.panicked

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)
(* ------------------------------------------------------------------ *)

let schema_version = 1

let quote = Graft_util.Minijson.quote

(** Deterministic JSON: fixed key order, cells in (technology, fault)
    table order, no timestamps — [diff]-able against a committed
    golden file. *)
let to_json cells demo =
  let cell_json c =
    Printf.sprintf
      "{\"technology\":%s,\"fault\":%s,\"predicted\":%s,\"observed\":%s,\"detail\":%s,\"fallback_ok\":%b,\"ok\":%b}"
      (quote (Technology.name c.tech))
      (quote (Faultinject.class_name c.fault))
      (quote (Sabotage.outcome_name c.predicted))
      (quote (Sabotage.outcome_name c.observed.Sabotage.outcome))
      (quote c.observed.Sabotage.detail)
      c.observed.Sabotage.fallback_ok (cell_ok c)
  in
  let demo_json =
    Printf.sprintf
      "{\"phases\":[%s],\"accesses\":%d,\"evictions\":%d,\"graft_faults\":%d,\"kernel_fallbacks\":%d,\"vm_invariant_ok\":%b,\"panicked\":%b}"
      (String.concat "," (List.map quote demo.phases))
      demo.accesses demo.evictions demo.graft_faults demo.kernel_fallbacks
      demo.vm_invariant_ok demo.panicked
  in
  Printf.sprintf
    "{\"schema_version\":%d,\"technologies\":%d,\"fault_classes\":%d,\"cells\":[%s],\"mismatches\":%d,\"fallback_demo\":%s}"
    schema_version
    (List.length technologies)
    (List.length Faultinject.all_classes)
    (String.concat "," (List.map cell_json cells))
    (List.length (mismatches cells))
    demo_json
