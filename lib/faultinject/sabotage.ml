(** Saboteur grafts: for each (technology × fault class) cell of the
    protection matrix, commit the fault through the technology's own
    mechanism — not by table lookup — and observe what actually
    contains it (or fails to).

    Every cell runs a freshly registered graft under the manager's
    supervision barrier with a one-strike jail policy, so a contained
    fault also demonstrates quarantine and kernel fallback. The memory
    model per native regime mirrors each technology's reality:

    - the {e unsafe} graft is linked into kernel memory and can
      address all of it; kernel data on both sides of its window
      carries canaries, and corruption found by the kernel's
      integrity checker is a panic;
    - the {e checked} regimes see exactly their own array — the
      compiler knows its bounds;
    - the {e SFI} regimes see a power-of-two sandbox that masking
      confines them to. *)

open Graft_mem
open Graft_core
module Access = Graft_grafts.Access
module K = Graft_kernel

(** What contained (or failed to contain) the fault. *)
type outcome =
  | Panic  (** kernel corrupted or hung: unsafe C *)
  | Server_restart  (** died in its own address space; kernel restarts it *)
  | Exception_barrier  (** fault caught at the manager barrier *)
  | Masked  (** SFI: the stray store was confined to the sandbox *)
  | Load_rejected  (** could not be expressed / rejected at load time *)
  | No_fault  (** completed silently — never predicted; a regression *)
  | Not_applicable

let outcome_name = function
  | Panic -> "panic"
  | Server_restart -> "server-restart"
  | Exception_barrier -> "exception"
  | Masked -> "masked"
  | Load_rejected -> "load-rejected"
  | No_fault -> "no-fault"
  | Not_applicable -> "n/a"

type observation = {
  outcome : outcome;
  detail : string;  (** observed fault class or a short note *)
  fallback_ok : bool;
      (** after containment the kernel's default path answered a
          subsequent invocation (vacuously true where meaningless) *)
}

let obs outcome detail = { outcome; detail; fallback_ok = true }

(* An unsafe graft spinning in the kernel: no compiled-in checks means
   nothing can preempt it. The harness bounds the loop and raises this
   (it is NOT a Fault — it sails past the barrier like a real hang). *)
exception Hang

let sentinel = 0xC0FFEE
let wlen = 16

(** One fault quarantines: matrix cells demonstrate the full
    fault -> strike -> quarantine -> fallback chain in one shot. *)
let jail_policy =
  {
    Manager.max_faults = 1;
    backoff_base = 1;
    backoff_factor = 2;
    max_strikes = 1;
  }

let fresh_graft tech =
  let m = Manager.create () in
  let g =
    Manager.register m
      ~name:("jail:" ^ Technology.name tech)
      ~tech ~structure:Taxonomy.Black_box ~motivation:Taxonomy.Functionality
      ~policy:jail_policy ()
  in
  g.Manager.state <- Manager.Attached;
  g

(* Classify one supervised invocation of [saboteur]. [corrupted] is
   the kernel's integrity check; [masked_store] looks for the stray
   value confined to the sandbox. *)
let observe g ?(corrupted = fun () -> false) ?(masked_store = fun () -> false)
    saboteur =
  match Manager.invoke g saboteur with
  | exception Manager.Kernel_panic msg ->
      obs Panic
        (match g.Manager.state with
        | Manager.Attached -> "fault with no protection: " ^ msg
        | s -> Manager.state_name s)
  | exception Hang -> obs Panic "kernel hung: nothing preempts unsafe code"
  | Some _ when corrupted () -> (
      try Manager.kernel_corruption g ~detail:"kernel canary overwritten"
      with Manager.Kernel_panic _ ->
        obs Panic "silent kernel corruption (canary overwritten)")
  | Some _ when masked_store () -> obs Masked "store confined to sandbox"
  | Some _ -> obs No_fault "completed without fault"
  | None ->
      let detail =
        match g.Manager.state with
        | Manager.Quarantined f -> "quarantined: " ^ Fault.class_name f
        | s -> Manager.state_name s
      in
      (* The quarantined graft must now be answered by the default
         kernel path: a second invocation returns None, no panic. *)
      let fallback_ok =
        Manager.invoke g (fun () -> 1) = None
        && (match g.Manager.state with
           | Manager.Quarantined _ -> true
           | _ -> false)
        && Manager.invariants_ok g
      in
      { outcome = Exception_barrier; detail; fallback_ok }

(* ------------------------------------------------------------------ *)
(* Native regimes: unsafe C, checked safe language, SFI.               *)
(* ------------------------------------------------------------------ *)

let native_cell (module R : Access.S) tech (fault : Faultinject.fault_class) =
  match fault with
  | Faultinject.Server_death -> obs Not_applicable "no server process"
  | _ ->
      let g = fresh_graft tech in
      let unsafe = Technology.can_crash_kernel tech in
      (* Unsafe: a 4*wlen kernel array, window in [wlen, 2*wlen), the
         rest is kernel data under canaries. Others: just the window
         (power-of-two, so it doubles as the SFI sandbox). *)
      let phys_len = if unsafe then 4 * wlen else wlen in
      let base = if unsafe then wlen else 0 in
      let arr = Array.make phys_len 0 in
      if unsafe then
        Array.iteri
          (fun i _ ->
            if i < wlen || i >= 2 * wlen then arr.(i) <- sentinel)
          arr;
      let corrupted () =
        unsafe
        && (let bad = ref false in
            for i = 0 to phys_len - 1 do
              let is_kernel = i < wlen || i >= 2 * wlen in
              if is_kernel && arr.(i) <> sentinel then bad := true
            done;
            !bad)
      in
      let masked_store () =
        (not unsafe) && Array.exists (fun v -> v = 0xBAD) arr
      in
      let disk = K.Diskmodel.create K.Diskmodel.modern_params in
      let watchdog_fuel = ref 10_000 in
      let watchdog () =
        decr watchdog_fuel;
        if !watchdog_fuel < 0 then
          if unsafe then raise Hang
          else
            (* the compiler-inserted quantum check, the native analogue
               of VM fuel: only protected technologies have it *)
            Fault.raise_fault Fault.Fuel_exhausted
      in
      let saboteur () =
        (match fault with
        | Faultinject.Wild_store -> R.set arr (base + wlen + 5) 0xBAD
        | Faultinject.Nil_deref ->
            (* the unsafe graft's NIL page is kernel page zero, which
               it can physically address; protected regimes dereference
               the NIL sentinel *)
            let nil = if unsafe then 2 else Access.nil_sentinel in
            R.set arr nil 0xBAD
        | Faultinject.Div_zero ->
            let z = R.get arr base in
            ignore (12 / z)
        | Faultinject.Infinite_loop ->
            let x = ref 1 in
            while !x <> 0 do
              watchdog ();
              incr x
            done
        | Faultinject.Io_error ->
            K.Diskmodel.arm_fault disk ~after:0;
            ignore (K.Diskmodel.read disk ~block:7 ~count:1)
        | Faultinject.Map_misuse ->
            (* The kernel's map object checks the key no matter how
               safe the caller is; the fault is raised kernel-side. *)
            let m = K.Graftmap.create_array ~name:"jail-map" 8 in
            ignore (K.Graftmap.lookup m 99)
        | Faultinject.Runaway_loop ->
            (* No loader on the native path: the fuel watchdog is the
               only backstop, exactly as for the generic runaway. *)
            let x = ref 1 in
            while !x <> 0 do
              watchdog ();
              incr x
            done
        | Faultinject.Server_death -> assert false);
        0
      in
      observe g ~corrupted ~masked_store saboteur

(* ------------------------------------------------------------------ *)
(* VM technologies: the GEL saboteur run on the real engines.          *)
(* ------------------------------------------------------------------ *)

let gel_saboteur =
  {|
shared array win[16];

extern fn map_lookup(int, int) : int;

fn mapoob() : int {
  return map_lookup(0, 99);
}

fn wild() : int {
  win[21] = 3053;
  return 0;
}

fn nil(p : int) : int {
  win[p] = 1;
  return 0;
}

fn divz(d : int) : int {
  return 7 / d;
}

fn spin() : int {
  var i = 1;
  while (i != 0) { i = i + 1; }
  return i;
}

fn io() : int {
  return 0;
}
|}

let vm_fuel = 20_000

let jail_map () = K.Graftmap.create_array ~name:"jail-map" 8

(* Graftgate's negative control as a saboteur: submit the demux graft
   whose scan loop is a raw while (semantically bounded, but not the
   canonical counted shape the bound derivation accepts) to the
   technology's bounded loader. Every verified tier must reject it at
   load — the fault class never reaches execution. *)
let runaway_cell tech =
  let maps = [| K.Graftmap.create_array ~name:"conn" 64 |] in
  match
    Runners.gel_graft ~hosts:(Runners.map_hosts maps) ~bounded:true tech
      (Graft_grafts.Gel_sources.demux_unbounded
         ~window_cells:Runners.pkt_window_cells ~protocol:6 ~marker:0x42)
      [ ("pkt", Runners.pkt_window_cells, false) ]
  with
  | (_ : Runners.loaded) ->
      obs No_fault "bounded loader admitted an uncertified backward jump"
  | exception Failure msg -> obs Load_rejected msg

(* Commit [fault] through a loaded interpreted saboteur (either the
   GEL one on a VM tier or the Tcl one) under the barrier. *)
let interp_cell tech (sab : Runners.loaded) (fault : Faultinject.fault_class) =
  let g = fresh_graft tech in
  let disk = K.Diskmodel.create K.Diskmodel.modern_params in
  let entry, args =
    match fault with
    | Faultinject.Wild_store -> ("wild", [||])
    | Faultinject.Nil_deref -> ("nil", [| Access.nil_sentinel |])
    | Faultinject.Div_zero -> ("divz", [| 0 |])
    | Faultinject.Infinite_loop | Faultinject.Runaway_loop ->
        (* A runaway reaches execution only on the source interpreter,
           which has no verifier: the fuel watchdog contains it like
           any other spin. *)
        ("spin", [||])
    | Faultinject.Io_error -> ("io", [||])
    | Faultinject.Map_misuse -> ("mapoob", [||])
    | Faultinject.Server_death -> assert false
  in
  let call = sab.Runners.entry entry ~nargs:(Array.length args) in
  observe g (fun () ->
      if fault = Faultinject.Io_error then begin
        K.Diskmodel.arm_fault disk ~after:0;
        ignore (K.Diskmodel.read disk ~block:7 ~count:1)
      end;
      call args)

let vm_cell tech (fault : Faultinject.fault_class) =
  match fault with
  | Faultinject.Server_death -> obs Not_applicable "no server process"
  | Faultinject.Runaway_loop -> runaway_cell tech
  | _ -> (
      match
        Runners.gel_graft
          ~hosts:(Runners.map_hosts [| jail_map () |])
          ~fuel:vm_fuel tech gel_saboteur
          [ ("win", wlen, true) ]
      with
      | sab -> interp_cell tech sab fault
      | exception Failure msg -> obs Load_rejected msg)

(* ------------------------------------------------------------------ *)
(* Source interpreter: the Tcl-like saboteur.                          *)
(* ------------------------------------------------------------------ *)

let script_saboteur =
  {|
proc wild {} { kstore win 21 7; return 0 }
proc nil {p} { kstore win $p 7; return 0 }
proc divz {d} { return [expr {7 / $d}] }
proc spin {} { while {1 == 1} { set x 1 } }
proc io {} { return 0 }
proc mapoob {} { kmaplookup 99 }
|}

let script_cell (fault : Faultinject.fault_class) =
  match fault with
  | Faultinject.Server_death -> obs Not_applicable "no server process"
  | _ ->
      let jail_map = jail_map () in
      interp_cell Technology.Source_interp
        (Runners.tcl_graft ~fuel:vm_fuel
           ~init:(fun interp ->
             Graft_script.Script.bind_command interp ~name:"kmaplookup"
               (fun _ args ->
                 let key =
                   match args with k :: _ -> int_of_string k | [] -> 0
                 in
                 string_of_int (K.Graftmap.lookup jail_map key)))
           script_saboteur
           [ ("win", wlen, true) ])
        fault

(* ------------------------------------------------------------------ *)
(* Upcall server: faults die in the server's own address space.        *)
(* ------------------------------------------------------------------ *)

let upcall_cell (fault : Faultinject.fault_class) =
  let clock = K.Simclock.create () in
  let domain = K.Upcall.create ~name:"jaild" ~clock ~switch_s:20e-6 () in
  let g = fresh_graft Technology.Upcall_server in
  let disk = K.Diskmodel.create K.Diskmodel.modern_params in
  let server_fuel = ref 10_000 in
  (* The handler misbehaves inside the server; its own MMU / runtime
     delivers the fault there (SIGSEGV, SIGFPE, watchdog), which
     [upcall_supervised] turns into server death + restart. *)
  let handler _args =
    match fault with
    | Faultinject.Wild_store ->
        Fault.raise_fault
          (Fault.Out_of_bounds { access = Fault.Write; addr = 0xDEAD })
    | Faultinject.Nil_deref -> Fault.raise_fault Fault.Nil_dereference
    | Faultinject.Div_zero ->
        let z = Array.length [||] in
        12 / z
    | Faultinject.Infinite_loop ->
        let x = ref 1 in
        while !x <> 0 do
          decr server_fuel;
          if !server_fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted;
          incr x
        done;
        !x
    | Faultinject.Io_error ->
        K.Diskmodel.arm_fault disk ~after:0;
        int_of_float (K.Diskmodel.read disk ~block:7 ~count:1)
    | Faultinject.Map_misuse ->
        let m = K.Graftmap.create_array ~name:"jail-map" 8 in
        K.Graftmap.lookup m 99
    | Faultinject.Runaway_loop ->
        let x = ref 1 in
        while !x <> 0 do
          decr server_fuel;
          if !server_fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted;
          incr x
        done;
        !x
    | Faultinject.Server_death -> 0
  in
  if fault = Faultinject.Server_death then K.Upcall.kill_server domain;
  let restarts0 = domain.K.Upcall.restarts in
  let result =
    Manager.invoke g (fun () ->
        K.Upcall.upcall_supervised domain handler [| 1 |])
  in
  match result with
  | Some None when domain.K.Upcall.restarts > restarts0 && domain.K.Upcall.alive
    ->
      (* The kernel answered this invocation itself while the server
         restarted; the next upcall reaches a live server again. *)
      { outcome = Server_restart;
        detail =
          Printf.sprintf "restart #%d, kernel answered" domain.K.Upcall.restarts;
        fallback_ok = true;
      }
  | Some (Some v) -> obs No_fault (Printf.sprintf "returned %d" v)
  | Some None -> obs No_fault "no restart recorded"
  | None -> obs Exception_barrier "fault escaped the server boundary"
  | exception Manager.Kernel_panic msg -> obs Panic msg

(* ------------------------------------------------------------------ *)
(* Specialized filter VM: safety by construction.                      *)
(* ------------------------------------------------------------------ *)

let pfvm_cell (fault : Faultinject.fault_class) =
  let rejected = function
    | Ok () -> obs No_fault "verifier admitted the saboteur"
    | Error msg -> obs Load_rejected ("verifier: " ^ msg)
  in
  match fault with
  | Faultinject.Nil_deref ->
      (* A negative packet load offset is the closest expressible
         analogue of a bad pointer; the verifier rejects it. *)
      rejected (K.Pfvm.verify [| K.Pfvm.Ld8 (-1); K.Pfvm.Ret 1 |])
  | Faultinject.Infinite_loop ->
      (* Backward jumps do not exist; a negative offset is rejected. *)
      rejected (K.Pfvm.verify [| K.Pfvm.Jeq (0, -1, -1); K.Pfvm.Ret 1 |])
  | Faultinject.Map_misuse ->
      (* A filter addressing a map the kernel did not attach: the map
         id is checked against [nmaps] at load. *)
      rejected (K.Pfvm.verify [| K.Pfvm.Mld 0; K.Pfvm.Reta |])
  | Faultinject.Runaway_loop ->
      (* A certified loop whose budget exceeds the VM's ceiling. *)
      rejected
        (K.Pfvm.verify
           [| K.Pfvm.Ldlen; K.Pfvm.Jloop (-1, K.Pfvm.max_budget); K.Pfvm.Ret 1 |])
  | Faultinject.Wild_store | Faultinject.Div_zero | Faultinject.Io_error -> (
      (* No stores, no division, no host calls: the saboteur cannot be
         written at all — the expressiveness limit is the protection. *)
      match Runners.evict Technology.Specialized_vm ~capacity_nodes:8 () with
      | _ -> obs No_fault "specialized VM accepted a general graft"
      | exception Invalid_argument _ ->
          obs Load_rejected "inexpressible: no stores/division/host calls")
  | Faultinject.Server_death -> obs Not_applicable "no server process"

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)
(* ------------------------------------------------------------------ *)

let run_cell_by_tech tech fault =
  match Runners.regime tech with
  | Runners.Native a -> native_cell a tech fault
  | Runners.Vm -> vm_cell tech fault
  | Runners.Script -> script_cell fault
  | Runners.Upcall -> upcall_cell fault
  | Runners.Filter_vm -> pfvm_cell fault

let run_cell tech fault =
  match (tech, fault) with
  | ( (Technology.Sfi_write_jump | Technology.Sfi_full),
      Faultinject.Runaway_loop ) ->
      (* The register-VM loader carries SFI's bounded-loop gate; the
         native masked regimes have no loader to reject at. *)
      runaway_cell tech
  | _ -> run_cell_by_tech tech fault
