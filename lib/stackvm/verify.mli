(** Load-time bytecode verifier, in the spirit of the Java verifier the
    paper's interpreted technology relies on.

    For each function it runs an abstract interpretation over operand-
    stack heights: every reachable instruction must have a single
    consistent height, never underflow, never exceed [max_stack], never
    jump outside its own function, and only reference valid locals,
    arrays, functions and externs. An interval analysis over the same
    bytecode then derives the operand range at every check site, which
    both decides the static tier's elisions ({!elide}) and admits each
    unchecked instruction ({!verify}). It reads nothing but the code:
    code that fails is rejected before it ever executes. *)

val max_stack : int
val max_locals : int

(** Pass 1's product: the operand-stack height on entry to every pc
    ([at], -1 where no path reaches it) and, per function, the largest
    height any reachable instruction has before or after it runs
    ([fmax]). *)
type heights = { at : int array; fmax : int array }

val heights : Program.t -> (heights, int option * string) result
(** [heights p] runs pass 1 alone: the static tables, every operand,
    and the per-function stack-height dataflow. It fails exactly when
    {!verify} fails pass 1, with the same message, paired with the pc
    of the instruction being checked when it failed ([None] for a
    table or function-extent failure). *)

(** What {!derive} hands back: pass 1's [heights], and pass 2's
    [operands] (per pc, the join of the operand intervals every visit
    of a check site saw: its index or divisor; ⊥ at every
    other pc and wherever pass 2 never arrives) and [reached] (whether
    any path pass 2 admits arrives at the pc). *)
type derived = {
  heights : heights;
  operands : Graft_analysis.Interval.t array;
  reached : bool array;
}

val derive :
  ?bounded:bool -> Program.t -> (derived, int option * string) result
(** [derive ?bounded p] runs {!verify}'s passes over [p], pass 2
    included, and returns what they derived. It fails exactly when
    {!verify} [p] fails, with the same message and, where there is
    one, the pc it failed at. [graftkit check] reads its diagnostics
    from it. *)

val verify : ?bounded:bool -> Program.t -> (unit, string) result
(** [verify ?bounded p] checks [p]. An unchecked instruction is
    admitted only if pass 2 reaches it and the operand interval it
    derives there is legal: an index inside its array (and, for a
    store, a writable one) or a divisor that excludes zero. With
    [bounded:true] (Graftgate mode) every backward
    jump must close a canonical counted loop whose init, head and step
    windows give a finite trip count ({!Graft_analysis.Loopbound.trips}),
    with no other write to the counter and no entry that skips the
    initialiser or the step ({!Graft_analysis.Loopbound.entry_fault});
    any conditional or other backward jump is rejected. *)

val elide :
  ?bounded:bool -> Program.t -> (Program.t * derived, string) result
(** [elide ?bounded p] runs {!derive} over [p] once and returns [p]
    with every checked site whose derived operand interval (never ⊥)
    is legal for its unchecked twin swapped to that twin, together with
    what {!derive} derived. The static tier's elisions are the
    verifier's own: a site and its twin have the same stack effect and
    interval transfer function, and {!verify} applies the same legality
    test to the same intervals, so the result passes {!verify} and the
    derived heights and intervals are also its own. It fails exactly
    when {!verify} [p] fails. *)
