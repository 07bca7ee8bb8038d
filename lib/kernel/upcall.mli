(** The hardware-protection technology: extensions live in a user-level
    server and the kernel reaches them by upcall (paper section 4.1).

    The handler runs for real (user-level servers run ordinary native
    code — that is their appeal), while the protection-boundary costs
    the paper analyses — two domain switches plus argument marshalling
    — are charged to the simulated clock. *)

type domain = {
  name : string;
  clock : Simclock.t;
  switch_s : float;  (** one kernel<->user crossing *)
  per_word_s : float;  (** marshalling cost per word *)
  mutable upcalls : int;
  mutable aborted : int;
  mutable alive : bool;  (** the user-level server process is running *)
  mutable restarts : int;  (** times the kernel restarted the server *)
}

val create :
  ?per_word_s:float ->
  name:string ->
  clock:Simclock.t ->
  switch_s:float ->
  unit ->
  domain

(** Round-trip upcall cost for [words] marshalled words. *)
val cost : domain -> words:int -> float

(** Charge the boundary cost and run the handler. [extra_words]
    accounts for bulk data copied across the boundary beyond the
    argument vector. *)
val upcall : domain -> ?extra_words:int -> (int array -> int) -> int array -> int

(** Run the handler under a wall-clock budget; on overrun the kernel
    "kills the server" and returns [None] — hardware protection's
    answer to runaway extensions. *)
val upcall_with_budget :
  domain ->
  ?extra_words:int ->
  budget_s:float ->
  (int array -> int) ->
  int array ->
  int option

(** Mark the server process dead; the kernel notices and restarts it
    on the next supervised upcall. *)
val kill_server : domain -> unit

(** Restart a dead (or live) server, charging process-creation time to
    the simulated clock and counting [restarts]. *)
val restart_server : domain -> unit

(** Supervised upcall: a dead server is restarted and the invocation
    answered by the kernel ([None]); a handler fault dies in the
    server's own address space — server killed, restarted, [None].
    The kernel itself never sees the failure. *)
val upcall_supervised :
  domain -> ?extra_words:int -> (int array -> int) -> int array -> int option

(** The paper's estimate: an upcall mechanism measured on BSD/OS ran
    about 40% quicker than signal delivery, so an upcall round trip
    costs [signal_fraction] (0.6) of a per-signal time;
    [switch_from_signal_time] is half of that round trip. *)
val signal_fraction : float

val estimate_from_signal_s : float -> float
val switch_from_signal_time : float -> float
