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
    {!verify} fails pass 1, with the same message. *)

(** What {!derive} hands back: pass 1's [heights], and pass 2's
    [operands] (per pc, the join of the operand intervals every visit
    of a check site saw: its index, map key or divisor; ⊥ at every
    other pc and wherever pass 2 never arrives) and [reached] (whether
    any path pass 2 admits arrives at the pc). *)
type derived = {
  heights : heights;
  operands : Graft_analysis.Interval.t array;
  reached : bool array;
}

val derive : ?bounded:bool -> Program.t -> (derived, string) result
(** [derive ?bounded p] runs {!verify}'s passes over [p], pass 2
    included, and returns what they derived. It fails exactly when
    {!verify} [p] fails. [graftkit check] reads its diagnostics from
    it. *)

val verify : ?bounded:bool -> Program.t -> (unit, string) result
(** [verify ?bounded p] checks [p]. With [bounded:true] (Graftgate
    mode), every backward jump must additionally be covered by a
    loop-bound certificate from [p]'s manifest, which this pass
    re-derives from the bytecode windows and matches exactly; any
    conditional or uncertified backward jump is rejected. An unchecked
    instruction is admitted only under a claim in [p]'s proof manifest
    that the interval analysis re-derives: derived ⊆ claim ⊆ legal. *)

val elide :
  ?bounded:bool -> Program.t -> (Program.t * derived, string) result
(** [elide ?bounded p] runs {!derive} over [p] once and returns [p]
    with every checked site whose derived operand interval (never ⊥)
    lies inside its legal range swapped to its unchecked twin, that
    interval recorded as the site's claim, together with what {!derive}
    derived. The static tier's elisions are the verifier's own: a site
    and its twin have the same stack effect and interval transfer
    function, so the result passes {!verify} without a second analysis
    and the derived heights and intervals are also its own. It fails
    exactly when {!verify} [p] fails. *)
