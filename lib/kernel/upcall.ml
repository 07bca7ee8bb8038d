(** The hardware-protection technology: extensions live in a user-level
    server and the kernel reaches them by upcall (paper section 4.1).

    The handler runs for real (it is ordinary native code — that is the
    point of user-level servers), while the protection-boundary costs
    the paper analyses — two domain switches plus argument marshalling
    — are charged to the simulated clock. The switch cost is a
    parameter so Figure 1's sweep over upcall times, and the paper's
    "40% quicker than a signal" estimate from a measured signal time,
    are both expressible. *)

type domain = {
  name : string;
  clock : Simclock.t;
  switch_s : float;  (** one kernel<->user crossing *)
  per_word_s : float;  (** marshalling cost per argument/result word *)
  mutable upcalls : int;
  mutable aborted : int;
  mutable alive : bool;  (** the user-level server process is running *)
  mutable restarts : int;  (** times the kernel restarted the server *)
}

(* Graftmeter counters for the protection boundary. *)
let m_crossings =
  Graft_metrics.domain_counter "graftkit_upcall_crossings"
    ~help:"Kernel<->user domain crossings (two per upcall)" []

let m_restarts =
  Graft_metrics.domain_counter "graftkit_upcall_restarts"
    ~help:"User-level server restarts after a death" []

let create ?(per_word_s = 10e-9) ~name ~clock ~switch_s () =
  {
    name;
    clock;
    switch_s;
    per_word_s;
    upcalls = 0;
    aborted = 0;
    alive = true;
    restarts = 0;
  }

(** The server process died (crashed or was killed). The kernel notices
    on the next upcall and restarts it — the extension failed in its
    own address space, exactly the hardware-protection story. *)
let kill_server domain =
  if domain.alive then begin
    domain.alive <- false;
    Graft_trace.Trace.instant Graft_trace.Trace.Upcall
      ("server-death:" ^ domain.name)
  end

let restart_server domain =
  domain.alive <- true;
  domain.restarts <- domain.restarts + 1;
  Graft_metrics.inc (m_restarts ());
  (* Process creation dwarfs a domain switch; charge a round number of
     switches for exec + address-space setup. *)
  Simclock.charge domain.clock
    (Printf.sprintf "server-restart:%s" domain.name)
    (20.0 *. domain.switch_s);
  Graft_trace.Trace.instant ~arg:domain.restarts Graft_trace.Trace.Upcall
    ("server-restart:" ^ domain.name)

(** Round-trip upcall cost for [words] marshalled words. *)
let cost domain ~words =
  (2.0 *. domain.switch_s) +. (float_of_int words *. domain.per_word_s)

(** [upcall domain handler args] charges the boundary cost and runs the
    handler. [extra_words] accounts for bulk data copied across the
    boundary beyond the argument vector (e.g. a 64KB buffer for a
    stream graft). *)
let upcall domain ?(extra_words = 0) (handler : int array -> int)
    (args : int array) : int =
  domain.upcalls <- domain.upcalls + 1;
  Graft_metrics.add (m_crossings ()) 2;
  let words = Array.length args + 1 + extra_words in
  Simclock.charge domain.clock
    (Printf.sprintf "upcall:%s" domain.name)
    (cost domain ~words);
  let tok = Graft_trace.Trace.span_begin () in
  let result = handler args in
  Graft_trace.Trace.span_end ~arg:words Graft_trace.Trace.Upcall domain.name
    tok;
  result

(** Run the handler under a wall-clock budget; if it exceeds the
    budget the kernel "kills the server" and carries on — hardware
    protection's answer to runaway extensions. Returns [None] on
    abort. *)
let upcall_with_budget domain ?(extra_words = 0) ~budget_s handler args =
  let elapsed, result =
    Graft_util.Timer.time_it (fun () ->
        try Some (upcall domain ~extra_words handler args)
        with _ -> None)
  in
  if elapsed > budget_s then begin
    domain.aborted <- domain.aborted + 1;
    None
  end
  else result

(** The fully supervised upcall used by Graftjail: if the server is
    dead the kernel restarts it and answers this invocation itself
    ([None]); if the handler faults, the fault is confined to the
    server's address space — the server dies, is restarted, and the
    kernel carries on. Only the isolation boundary, never the kernel,
    absorbs the failure. *)
let upcall_supervised domain ?(extra_words = 0) handler args =
  if not domain.alive then begin
    restart_server domain;
    None
  end
  else
    match upcall domain ~extra_words handler args with
    | result -> Some result
    | exception Graft_mem.Fault.Fault f ->
        Graft_trace.Trace.instant Graft_trace.Trace.Upcall
          ("server-fault:" ^ Graft_mem.Fault.class_name f);
        kill_server domain;
        restart_server domain;
        None
    | exception Division_by_zero ->
        (* The server's own divide trap: SIGFPE kills the process. *)
        Graft_trace.Trace.instant Graft_trace.Trace.Upcall
          ("server-fault:div-zero");
        kill_server domain;
        restart_server domain;
        None

(** The paper's estimate: an upcall mechanism measured on BSD/OS ran
    about 40% quicker than signal delivery. *)
let signal_fraction = 0.6

let estimate_from_signal_s signal_s = signal_s *. signal_fraction
let switch_from_signal_time signal_s = estimate_from_signal_s signal_s /. 2.0
