(** Reference interpreter for GEL IR: a direct AST walk.

    This is the semantic oracle the VM backends are differentially
    tested against, and it doubles as a measured technology in its own
    right (an AST-walking interpreter sits between a bytecode VM and a
    source-level interpreter in the paper's taxonomy). Every access is
    checked; fuel is decremented per evaluated node so runaway grafts
    are preempted. Control flow is carried as a value, never as an
    exception. *)

(** Call depth at which a further GEL call faults [Stack_overflow]. *)
val max_depth : int

(** A session holds the image's cells and array tables, one frame slab
    per call depth and an argument staging area, so a resident graft's
    calls, GEL and host alike, allocate nothing; slabs and staging grow
    on first use.
    Sessions are single-threaded and reusable across runs, not
    reentrant. *)
type session

val create_session : Link.image -> session

(** [run_session s ~fn ~args ~fuel] invokes function [fn], an
    {!Ir.entry} index into the image's IR, with integer [args] and
    returns its result; the fault that stops the graft raises
    [Graft_mem.Fault.Fault]. Each run counts once into the
    [graftkit_vm_sessions] and [graftkit_vm_fuel] series, tier
    ["ast"]. *)
val run_session : session -> fn:int -> args:int array -> fuel:int -> int

(** One-shot convenience; resident grafts should keep a session. *)
val run : Link.image -> fn:int -> args:int array -> fuel:int -> int

(** Shared operator semantics, reused by the register VM's evaluator
    and the IR optimizer's folding so arithmetic cannot drift between
    engines. [arith] writes the [Wordops] word and int-shift semantics
    out and raises [Graft_mem.Fault.Fault] on division by zero. *)

val arith : Ir.kind -> Ir.arith -> int -> int -> int

(** 0/1 result of a comparison. *)
val compare_vals : Ir.cmp -> int -> int -> int
