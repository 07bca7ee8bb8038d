(** Executable form of a register-VM graft. Nothing rides beside the
    code for the verifier to read: an access left unmasked is admitted
    only if {!Verify} proves it in-segment from the instructions.

    The instrumented code, its tables and its segment are the verified
    module; [host] and [cells] are one tenant's state, which
    {!instantiate} swaps for another's of the same shape. *)

type funcdesc = {
  name : string;
  nargs : int;
  entry : int;
  code_end : int;
}

(** The sandbox segment SFI confines writes (and optionally reads) to.
    [base] is aligned to [size]; [size] is a power of two. *)
type segment = { base : int; size : int }

type protection =
  | Unprotected  (** no SFI pass applied (baseline for ablation) *)
  | Write_jump  (** Omniware beta: stores masked, loads free *)
  | Full  (** stores and loads masked *)

type t = {
  code : Isa.instr array;
  funcs : funcdesc array;
  host : (int array -> int -> int) array;
      (** per extern, reading its arguments in place
          ({!Graft_gel.Link.host}) *)
  ext_arity : int array;
  ext_names : string array;
      (** Extern names, parallel to [host]/[ext_arity]; the verifier
          checks externs named like typed helpers ({!Graft_analysis.Helpers})
          against the table's signature. *)
  cells : int array;
  segment : segment;
  protection : protection;
}

(** [p]'s verified code over another tenant's cells and host closures.
    The segment the code was sandboxed and verified for is the memory
    size, so cells of another length (or another extern count) raise
    [Invalid_argument]. *)
let instantiate p ~cells ~host =
  if Array.length cells <> Array.length p.cells
     || Array.length host <> Array.length p.host
  then invalid_arg "Program.instantiate: state differs from the verified shape";
  { p with cells; host }

let protection_to_string = function
  | Unprotected -> "unprotected"
  | Write_jump -> "write+jump"
  | Full -> "full (read+write+jump)"
