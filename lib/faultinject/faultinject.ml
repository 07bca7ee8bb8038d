(** Graftjail's deterministic fault-injection plans.

    A {e plan} is a set of {e arms}: (hook site, fault class, trigger
    count). Code under test calls {!tick} at each hook site; when the
    site's invocation counter reaches an arm's trigger the arm fires
    (once) and the caller commits the corresponding fault through
    whatever technology it is exercising. Plans are either written
    explicitly or derived from a 64-bit seed, so every failing run is
    replayable from its seed alone — the same discipline as the
    differential fuzzer's [--seed]. *)

type fault_class =
  | Wild_store  (** store outside the graft's window *)
  | Nil_deref  (** store through the NIL pointer *)
  | Div_zero
  | Infinite_loop  (** runaway loop; the fuel watchdog's problem *)
  | Server_death  (** the upcall server process dies *)
  | Io_error  (** a disk-model access fails *)
  | Map_misuse  (** graft-map access with an out-of-range key *)
  | Runaway_loop
      (** a backward jump with no derivable trip count, submitted to a
          bounded loader — Graftgate's verifiers reject it at load *)

let all_classes =
  [
    Wild_store; Nil_deref; Div_zero; Infinite_loop; Server_death; Io_error;
    Map_misuse; Runaway_loop;
  ]

let class_name = function
  | Wild_store -> "wild-store"
  | Nil_deref -> "nil-deref"
  | Div_zero -> "div-zero"
  | Infinite_loop -> "infinite-loop"
  | Server_death -> "server-death"
  | Io_error -> "io-error"
  | Map_misuse -> "map-misuse"
  | Runaway_loop -> "runaway-loop"

(** A representative [Fault.t] for each class, for injection points
    that raise directly rather than misbehaving through a technology
    (kernel-side hooks, the property tests). *)
let fault_of = function
  | Wild_store ->
      Graft_mem.Fault.Out_of_bounds { access = Graft_mem.Fault.Write; addr = 0xDEAD }
  | Nil_deref -> Graft_mem.Fault.Nil_dereference
  | Div_zero -> Graft_mem.Fault.Division_by_zero
  | Infinite_loop -> Graft_mem.Fault.Fuel_exhausted
  | Server_death -> Graft_mem.Fault.Host_error "upcall server died"
  | Io_error -> Graft_mem.Fault.Host_error "injected disk I/O error"
  | Map_misuse ->
      Graft_mem.Fault.Out_of_bounds { access = Graft_mem.Fault.Read; addr = 99 }
  | Runaway_loop ->
      Graft_mem.Fault.Illegal_instruction "uncertified backward jump"

type arm = {
  site : string;
  fault : fault_class;
  trigger : int;  (** fires on the [trigger]-th tick of [site], 1-based *)
  mutable fired : bool;
}

(* One record per site ticked so far, found with one lookup per tick. *)
type site_state = {
  mutable count : int;
  site_arms : arm list;  (** this site's arms, in plan order *)
}

type t = {
  arms : arm list;
  sites : (string, site_state) Hashtbl.t;
  mutable history : (string * fault_class * int) list;  (** reverse order *)
}

let make specs =
  let arms =
    List.map
      (fun (site, fault, trigger) ->
        if trigger < 1 then
          invalid_arg "Faultinject.make: trigger counts are 1-based";
        { site; fault; trigger; fired = false })
      specs
  in
  { arms; sites = Hashtbl.create 8; history = [] }

let arms t = List.map (fun a -> (a.site, a.fault, a.trigger)) t.arms

(** Classes a running graft can commit mid-flight — excludes
    {!Runaway_loop}, which only exists at load time (a bounded loader
    rejects it before the graft ever runs), and {!Server_death}, which
    needs an upcall domain to kill. The serve harness derives its
    sustained-load plans from this list. *)
let runtime_classes =
  [ Wild_store; Nil_deref; Div_zero; Infinite_loop; Io_error; Map_misuse ]

(** Derive a plan from a seed: [narms] arms over [sites], triggers in
    [1..max_trigger], classes drawn from [classes] (default: all).
    Deterministic in (seed, sites, narms, classes). *)
let of_seed ?(narms = 3) ?(max_trigger = 16) ?(classes = all_classes) ~sites
    seed =
  if sites = [] then invalid_arg "Faultinject.of_seed: no sites";
  if classes = [] then invalid_arg "Faultinject.of_seed: no classes";
  let rng = Graft_util.Prng.create seed in
  let nsites = List.length sites in
  let nclasses = List.length classes in
  let specs =
    List.init narms (fun _ ->
        let site = List.nth sites (Graft_util.Prng.int rng nsites) in
        let fault = List.nth classes (Graft_util.Prng.int rng nclasses) in
        let trigger = 1 + Graft_util.Prng.int rng max_trigger in
        (site, fault, trigger))
  in
  make specs

let state_of t site =
  try Hashtbl.find t.sites site
  with Not_found ->
    let s =
      { count = 0; site_arms = List.filter (fun a -> a.site = site) t.arms }
    in
    Hashtbl.add t.sites site s;
    s

(* The first unfired arm whose trigger is [n]: fire it. *)
let rec fire t n = function
  | [] -> None
  | a :: rest ->
      if (not a.fired) && a.trigger = n then begin
        a.fired <- true;
        t.history <- (a.site, a.fault, n) :: t.history;
        Graft_trace.Trace.instant ~arg:n Graft_trace.Trace.Manager
          ("inject:" ^ class_name a.fault);
        Some a.fault
      end
      else fire t n rest

(** Count one invocation of [site]; returns the fault class to commit
    now if exactly one arm fires, choosing the first unfired arm in
    plan order when several share the trigger. *)
let tick t site =
  let s = state_of t site in
  s.count <- s.count + 1;
  fire t s.count s.site_arms

(** Tick [site] and raise the armed fault (as {!fault_of}) when one
    fires — the one-line injection hook for kernel-side sites. *)
let check t site =
  match tick t site with
  | None -> ()
  | Some c -> Graft_mem.Fault.raise_fault (fault_of c)

(** Arms fired so far: (site, class, trigger), in firing order. *)
let fired t = List.rev t.history

let ticks t site =
  match Hashtbl.find t.sites site with s -> s.count | exception Not_found -> 0

let reset t =
  Hashtbl.reset t.sites;
  t.history <- [];
  List.iter (fun a -> a.fired <- false) t.arms
