(** Executable form of a stack-VM graft: one flat code array plus
    function, array, and host tables. Produced by [Compile], checked by
    [Verify], executed by [Vm]. *)

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
  proofs : (int * Graft_analysis.Interval.t) array;
      (** proof manifest for unchecked instructions: [(pc, claim)]
          pairs, sorted by pc. For [Aload_u]/[Astore_u] the claim is
          the index interval, for [Div_u]/[Mod_u] the divisor interval,
          for [Mlookup_u]/[Mupdate_u] the key interval. [Verify.elide]
          records the intervals it derived; whoever wrote a claim, it is
          untrusted: [Verify.verify] derives its own intervals and
          admits an unchecked instruction only if
          derived ⊆ claim ⊆ legal. *)
  loop_bounds : (int * Graft_analysis.Loopbound.cert) array;
      (** loop-bound certificates keyed by the pc of the backward
          [Jmp] closing each loop; untrusted like [proofs], re-derived
          by [Verify ~bounded] before a backward jump is admitted *)
}

let find_func p name =
  let rec go i =
    if i >= Array.length p.funcs then None
    else if p.funcs.(i).name = name then Some i
    else go (i + 1)
  in
  go 0
