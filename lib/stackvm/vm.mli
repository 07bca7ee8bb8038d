(** The stack bytecode interpreter: a software virtual machine in the
    style of the 1995 Java VM the paper measured — switch dispatch over
    a bytecode array, an operand stack, per-call local frames, and a
    fuel counter decremented on every instruction so the kernel can
    preempt runaway grafts.

    One tail-recursive dispatch function runs every tier's stack code;
    its state ([fuel], the session, the frame's locals, [sp], [pc]) is
    its arguments, so it stays in registers. A host call ([Callext])
    leaves the loop and is performed by a small outer loop, the host
    reading its arguments in place on the operand stack; the outer loop
    also grows a frame slab too small for a [Call] and re-enters at
    that [Call]. A profiled session single-steps the same loop. *)

val max_frames : int
val stack_size : int

(** A session holds the operand stack and frame table so a resident
    graft pays no allocation on each kernel-to-graft entry. Sessions
    are single-threaded and reusable across calls, not reentrant. *)
type session

(** [create_session ?profile p] — when [profile] is given, every
    executed opcode and each entry's fuel are counted into it (see
    {!Graft_trace.Opprof}): the outer loop runs the dispatch loop one
    instruction at a time and counts each opcode before it runs. *)
val create_session : ?profile:Graft_trace.Opprof.t -> Program.t -> session

(** [run_session s ~fn ~args ~fuel] enters function [fn] (an index
    from {!Graft_gel.Ir.entry} into the IR the program was compiled
    from) with [args] as its first locals and returns its result. The
    fault that stops the graft raises [Graft_mem.Fault.Fault]. *)
val run_session : session -> fn:int -> args:int array -> fuel:int -> int

(** The fused opcodes' operator ([Division_by_zero] on a zero [KDiv] or
    [KMod] divisor) and comparison. The dispatch loop inlines them; the
    JIT calls them, so both tiers share one semantics. *)
val bink_fn : Opcode.bink -> int -> int -> int

val cmp_fn : Opcode.cmp -> int -> int -> bool

(** One-shot convenience; resident grafts should keep a session. *)
val run : Program.t -> fn:int -> args:int array -> fuel:int -> int
