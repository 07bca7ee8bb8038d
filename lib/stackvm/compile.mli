(** Compiler from GEL IR to stack bytecode.

    Compilation happens against a linked image so global and array
    addresses are absolute. Short-circuit operators and loops lower to
    conditional jumps; [continue] jumps to the loop's step block and
    [break] past the loop. Every function ends with a [Const 0; Ret]
    safety net (unreachable in value functions — the typechecker
    guarantees a return on every path). *)

val compile : ?bounds:bool -> Graft_gel.Link.image -> Program.t
(** [compile ?bounds image] compiles to fully-checked bytecode: check
    elision is the verifier's ({!Verify.elide}), not the compiler's.
    Every extern call, typed map helpers included, becomes a
    [Callext]. With [bounds:true], every loop must have a bound
    {!Graft_analysis.Loopbound.derive} finds in the IR; an underivable
    loop raises [Invalid_argument] ("Compile: unbounded loop: ...").
    Nothing about the bound is recorded: the bounded verifier derives
    it again from the bytecode. *)

val compile_located :
  Graft_gel.Link.image -> Program.t * (int * Graft_gel.Srcloc.pos) array
(** [compile_located image] compiles located IR
    ([Graft_gel.Typecheck.check_program_located]) as {!compile} does
    and also returns, in pc order, each [Ir.At] statement's first pc
    with its source position, for [graftkit check]'s diagnostics. *)
