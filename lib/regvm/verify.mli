(** Linear-time load-time verifier for sandboxed register code — the
    "linear-time algorithm [that] can be used to guarantee that all
    memory references in a piece of object code have been correctly
    sandboxed" from the paper's section 4.2.

    Enforced for [Write_jump] protection (plus loads for [Full]): every
    store addresses through the dedicated sandbox register r1 at offset
    0; r1 is written only by the canonical [andi]/[ori] masking pair
    with the segment's exact constants; no branch lands inside a
    masking sequence; r0 is never written; every register operand, and
    every branch and call target, is in range. One pass, O(1) work per
    instruction. An access not in masked form is admitted only if the
    {!Flow} interval analysis over the same code proves its address
    inside the segment; the verifier reads nothing but the code. *)

val verify : ?bounded:bool -> Program.t -> (unit, string) result
(** [verify ?bounded p] checks [p]. Externs named like typed helpers
    ({!Graft_analysis.Helpers}) must match the table's arity. With
    [bounded:true] (Graftgate mode) every backward branch must be the
    backedge of a canonical counted loop: the verifier reads the
    init/test/step windows, requires the step to be the loop's only
    counter write, holds the loop to
    {!Graft_analysis.Loopbound.entry_fault}, and computes a finite trip
    count — conditional or non-conforming backward branches are load
    errors. *)
