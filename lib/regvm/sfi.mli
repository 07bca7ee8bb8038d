(** The software-fault-isolation rewriting pass (sandboxing), after
    Wahbe et al. [WAHBE93] as productized by Omniware [COLU95].

    Every store — and in [Full] mode every load — is rewritten to go
    through the dedicated sandbox register r1 via an
    [addi]/[andi]/[ori] masking sequence. Because the segment base is
    aligned to its power-of-two size, the and/or pair maps any address
    into the segment: a graft can at worst overwrite its own data, at a
    cost of three ALU instructions per store. Branch targets and
    function entries are remapped. *)

val is_pow2 : int -> bool

(** Treat an entire graft memory as one sandbox segment. Requires a
    power-of-two cell count; raises [Invalid_argument] otherwise. *)
val segment_of_memory : Graft_mem.Memory.t -> Program.segment

(** Instrument for the given protection level ([Unprotected] returns
    the program unchanged apart from the recorded level). Raises
    [Invalid_argument] for an unaligned or non-power-of-two segment.

    [~elide:true] runs the {!Flow} interval analysis first and leaves
    accesses unmasked when their effective address provably lies inside
    the segment (where the size-aligned and/or masking pair is the
    identity anyway). Nothing records the elisions: {!Verify} admits
    an unmasked access only if {!Flow} over the instrumented code
    proves it in-segment. *)
val instrument :
  ?elide:bool -> Program.t -> protection:Program.protection -> Program.t
