(** Compiler from GEL IR to stack bytecode.

    Compilation happens against a linked image so global and array
    addresses are absolute. Short-circuit operators and loops lower to
    conditional jumps; [continue] jumps to the loop's step block and
    [break] past the loop. Every function ends with a [Const 0; Ret]
    safety net (unreachable in value functions — the typechecker
    guarantees a return on every path). *)

val compile :
  ?maps:Graft_kernel.Graftmap.t array ->
  ?bounds:bool ->
  Graft_gel.Link.image ->
  Program.t
(** [compile ?maps ?bounds image] compiles to fully-checked bytecode
    with an empty proof manifest: check elision is the verifier's
    ({!Verify.elide}), not the compiler's. With [maps], lowerable
    [map_lookup]/[map_update] helper calls become dedicated map opcodes
    against those map objects. With [bounds:true], every loop must
    admit a {!Graft_analysis.Loopbound} certificate (recorded at the
    loop's backward [Jmp]); an underivable loop raises
    [Invalid_argument]. *)
