(** Evaluator for register-VM code.

    Besides the result it counts the instructions each entry executes
    ({!instructions}), giving an interpreter-speed-independent measure
    of the SFI instrumentation overhead for the ablation benches. Wild
    accesses that escape the physical cell array fault like a hardware
    MMU would; accesses inside it are unchecked (SFI masking, not
    checking, is the protection story). *)

val max_frames : int

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

(** [run_session s ~fn ~args ~fuel] enters function [fn] (an index from
    {!Graft_gel.Ir.entry} into the IR the program was compiled from)
    with [args] in its argument registers and returns its result. The
    fault that stops the graft raises [Graft_mem.Fault.Fault]. *)
val run_session : session -> fn:int -> args:int array -> fuel:int -> int

(** Instructions the session's last entry executed, up to its fault if
    it faulted. *)
val instructions : session -> int

(** One-shot convenience; resident grafts should keep a session. *)
val run : Program.t -> fn:int -> args:int array -> fuel:int -> int
