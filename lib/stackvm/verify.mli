(** Load-time bytecode verifier, in the spirit of the Java verifier the
    paper's interpreted technology relies on.

    For each function it runs an abstract interpretation over operand-
    stack heights: every reachable instruction must have a single
    consistent height, never underflow, never exceed [max_stack], never
    jump outside its own function, and only reference valid locals,
    arrays, functions and externs. An interval analysis over the same
    bytecode then derives the operand range at every check site, which
    both decides the static tier's elisions ({!elide}) and judges any
    claim a program arrives with ({!verify}). Code that fails is
    rejected before it ever executes. *)

val max_stack : int
val max_locals : int

(** Pass 1's product: the operand-stack height on entry to every pc
    ([at], -1 where no path reaches it) and, per function, the largest
    height any reachable instruction has before or after it runs
    ([fmax]). *)
type heights = { at : int array; fmax : int array }

val heights : Program.t -> (heights, string) result
(** [heights p] runs pass 1 alone: the static tables, every operand,
    and the per-function stack-height dataflow. It fails exactly when
    {!verify} fails pass 1, with the same message. Every later stage
    that needs a stack height (the JIT's block plan) reads it from
    here. *)

val verify : ?bounded:bool -> Program.t -> (unit, string) result
(** [verify ?bounded p] checks [p]. With [bounded:true] (Graftgate
    mode), every backward jump must additionally be covered by a
    loop-bound certificate from [p]'s manifest, which this pass
    re-derives from the bytecode windows and matches exactly; any
    conditional or uncertified backward jump is rejected. An unchecked
    instruction is admitted only under a claim in [p]'s proof manifest
    that the interval analysis re-derives: derived ⊆ claim ⊆ legal. *)

val elide : ?bounded:bool -> Program.t -> (Program.t, string) result
(** [elide ?bounded p] runs {!verify}'s passes over [p] once and
    returns [p] with every checked site whose derived operand interval
    (joined over all visits, never ⊥) lies inside its legal range
    swapped to its unchecked twin, that interval recorded as the
    site's claim. The static tier's elisions are the verifier's own: a
    site and its twin have the same interval transfer function, so the
    result passes {!verify} without a second analysis. It fails
    exactly when {!verify} [p] fails. *)
