(** Compiler from GEL IR to register-VM code.

    Locals live in registers; expression temporaries are stack-
    allocated above them. Array bases are baked in as load/store
    immediates and no bounds checks are emitted: in the SFI model,
    memory safety comes from the {!Sfi} rewriting pass, not checks.

    The register allocator does not spill: a function with more locals
    than the registers above [Isa.reg_base] hold, or an expression too
    deep for the 128-register file, raises {!Compile_error} (surfaced as
    a load error by {!Regvm.load}). *)

exception Compile_error of string

val compile : Graft_gel.Link.image -> segment:Program.segment -> Program.t
