(** Evaluator for register-VM code.

    Besides the result it reports the number of instructions executed,
    giving an interpreter-speed-independent measure of the SFI
    instrumentation overhead for the ablation benches. Wild accesses
    that escape the physical cell array fault like a hardware MMU
    would; accesses inside it are unchecked (SFI masking, not checking,
    is the protection story). *)

val max_frames : int

type outcome = { value : int; instructions : int }

(** Register windows reused across kernel-to-graft entries like a
    resident VM's. A session starts with no register file: the frame
    at depth d gets its zero-filled file when a call first reaches d
    (frame 0 at the first entry), so a session costs what its grafts'
    call depth uses. Single-threaded, not reentrant. *)
type session

(** [create_session ?profile p] — when [profile] is given, the
    dispatch loop counts every executed opcode and each entry's fuel
    into it (see {!Graft_trace.Opprof}). *)
val create_session : ?profile:Graft_trace.Opprof.t -> Program.t -> session

val run_session :
  session ->
  entry:string ->
  args:int array ->
  fuel:int ->
  (outcome, [ `Fault of Graft_mem.Fault.t | `Bad_entry of string ]) result

(** One-shot convenience; resident grafts should keep a session. *)
val run :
  Program.t ->
  entry:string ->
  args:int array ->
  fuel:int ->
  (outcome, [ `Fault of Graft_mem.Fault.t | `Bad_entry of string ]) result
