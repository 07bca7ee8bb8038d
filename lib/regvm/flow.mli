(** Register-interval dataflow over SFI register code: the shared
    evidence base for mask elision. {!Sfi.instrument} consults it to
    find accesses whose effective address provably stays inside the
    sandbox segment; {!Verify} runs it over the instrumented code and
    admits an unmasked access only where its own run proves the
    address in-segment, so the instrumenter never joins the trusted
    base. Deliberately path-insensitive
    (no branch refinement); it iterates on the stack verifier's solver
    ({!Graft_analysis.Fixpoint}), widening only at back-edge targets. *)

(** [analyze code funcs] returns, for every pc, the register intervals
    holding just before that instruction executes; [None] marks
    unreachable pcs. r0 is pinned to [0,0] (the verifier refuses writes
    to it); loads and call results are ⊤. Each state holds the
    registers [code] names — one past the highest any instruction reads
    or writes, a call's argument block included — so its cost follows
    the code, not the machine's register count. *)
val analyze :
  Isa.instr array ->
  Program.funcdesc array ->
  Graft_analysis.Interval.t array option array

(** Effective-address interval of [mem\[r.(rb) + off\]] at [pc] given
    the analysis result; [Interval.bot] if the pc is unreachable. *)
val address :
  Graft_analysis.Interval.t array option array ->
  int ->
  int ->
  int ->
  Graft_analysis.Interval.t
