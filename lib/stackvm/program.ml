(** Executable form of a stack-VM graft: one flat code array plus
    function, array, and host tables. Produced by [Compile], checked by
    [Verify], executed by [Vm]. Nothing rides beside the code for the
    verifier to read: it judges every unchecked instruction and every
    backward jump from the instructions alone.

    The code and its function, array and extern tables are the verified
    module; [host] and [cells] are one tenant's state, which
    {!instantiate} swaps for another's of the same shape. A graft
    reaches its maps through [host], as typed helper calls. *)

type funcdesc = {
  name : string;
  nargs : int;
  nlocals : int;  (** including parameters *)
  entry : int;  (** code index of the first instruction *)
  code_end : int;  (** one past the last instruction of this function *)
}

type arrdesc = { base : int; len : int; writable : bool }

type t = {
  code : Opcode.t array;
  funcs : funcdesc array;
  arrays : arrdesc array;
  host : (int array -> int -> int) array;
      (** per extern, reading its arguments in place
          ({!Graft_gel.Link.host}) *)
  ext_arity : int array;  (** argument count per extern, for the verifier *)
  ext_names : string array;
      (** extern names, so the verifier can hold helper-named externs
          to the typed helper table's signatures *)
  cells : int array;  (** the graft address space backing store *)
}

(** [p]'s verified code over another tenant's cells and host closures.
    The verifier's judgement rests on the memory size and the extern
    count, so a state that differs in either raises [Invalid_argument]
    rather than run code verified for another shape. *)
let instantiate p ~cells ~host =
  if
    Array.length cells <> Array.length p.cells
    || Array.length host <> Array.length p.host
  then invalid_arg "Program.instantiate: state differs from the verified shape";
  { p with cells; host }
