(** Executable form of a stack-VM graft: one flat code array plus
    function, array, and host tables. Produced by [Compile], checked by
    [Verify], executed by [Vm]. Nothing rides beside the code for the
    verifier to read: it judges every unchecked instruction and every
    backward jump from the instructions alone.

    The code and its function, array and extern tables are the verified
    module; [host], [cells] and [maps] are one tenant's state, which
    {!instantiate} swaps for another's of the same shape. *)

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
  host : (int array -> int) array;
  ext_arity : int array;  (** argument count per extern, for the verifier *)
  ext_names : string array;
      (** extern names, so the verifier can hold helper-named externs
          to the typed helper table's signatures *)
  cells : int array;  (** the graft address space backing store *)
  maps : Graft_kernel.Graftmap.t array;
      (** graft maps addressed by [Mlookup]/[Mupdate] map ids *)
}

(** [p]'s verified code over another tenant's cells, host closures and
    maps. The verifier's judgement rests on the memory size, the extern
    count and each map's kind and capacity, so a state that differs in
    any of them raises [Invalid_argument] rather than run code verified
    for another shape. *)
let instantiate p ~cells ~host ~maps =
  let same_map a b =
    Graft_kernel.Graftmap.kind a = Graft_kernel.Graftmap.kind b
    && Graft_kernel.Graftmap.max_entries a
       = Graft_kernel.Graftmap.max_entries b
  in
  if
    Array.length cells <> Array.length p.cells
    || Array.length host <> Array.length p.host
    || Array.length maps <> Array.length p.maps
    || not (Array.for_all2 same_map maps p.maps)
  then invalid_arg "Program.instantiate: state differs from the verified shape";
  { p with cells; host; maps }
