(** Peephole superinstruction fusion over compiled stack-VM programs.

    The bytecode interpreter's cost is dominated by dispatch: every
    [Const k; Add] pair pays two fuel decrements, two match dispatches
    and two stack round trips to do one addition. This pass rewrites a
    compiled {!Program.t}, replacing the dispatch pairs that dominate
    the paper's grafts with the fused opcodes of {!Opcode}:

    - [Const k; OP]                              -> [Bink (op, k)]
    - [Const k; CMP]                             -> [Cmpk (c, k)]
    - [CMP; Jz/Jnz t]                            -> [Jcmp (c, flag, t)]
    - [Const k; CMP; Jz/Jnz t]                   -> [Jcmpk (c, k, flag, t)]
    - [Const k; Aload a]                         -> [Aload_k (a, k)]
    - [Load_local n; Const k; Add; Store_local n] -> [Local_addk (n, k)]
    - [Load_local n; Const k; CMP; Jz/Jnz t]     -> [Jcmpk_local (c,n,k,f,t)]
    - [Load_local a; Load_local b; OP]           -> [Bin_local2 (op, a, b)]
    - [Load_local a; Load_local b]               -> [Load_local2 (a, b)]
    - [Load_local n; OP]                         -> [Bin_local (op, n)]
    - [Load_local n; Aload a]                    -> [Aload_local (a, n)]
    - [Load_local src; Store_local dst]          -> [Move_local (dst, src)]
    - [Const k; Store_local n]                   -> [Store_localk (n, k)]
    - [OP; Store_local n]                        -> [Bin_store (op, n)]
    - [Const k; OP; Store_local n]               -> [Bink_store (op, k, n)]
    - [Load_local n; Const k; OP]                -> [Bink_local (op, n, k)]
    - [Load_local n; Aload a; OP]                -> [Bin_aload_local (op,a,n)]
    - [Load_local n; Aload a; Store_local d]     -> [Aload_local_store (a,n,d)]
    - [lmove; lmove]                             -> [Move_local2 (d1,s1,d2,s2)]

    Division and modulo fuse only with a non-zero constant divisor
    ([Const k; Div/Mod], k <> 0): a zero divisor must keep the plain
    opcode and its runtime fault, and a local divisor is never fused.

    Fusion is semantics-preserving by construction:

    - a pattern is fused only when none of its interior instructions is
      a jump target or function entry, so control can never transfer
      into the middle of a fused group;
    - each fused opcode charges fuel equal to {!Opcode.width}, the
      number of instructions it replaces, and the interpreter re-checks
      the budget before the group's (single, final) observable action —
      optimized code exhausts fuel, faults and stores exactly where the
      unfused code would;
    - runtime checks (array bounds, writability) are kept in the fused
      forms, so the verifier does not need to prove more about fused
      code than about plain code.

    The output is re-verified by {!Stackvm.load_opt}; every jump target
    and function extent is remapped onto the shortened code array.

    Under bounded loading ([~bounded:true]) counted loops survive the
    pass: the windows around every backward [Jmp] — initialiser, head
    and step, the instruction patterns the bounded verifier derives the
    trip count from — are pinned unfused. The loop {e body} between the
    windows still fuses. The bounded loader then verifies the fused
    program, so the termination bound holds of the code that actually
    executes and never rests on trusting this pass. *)

(* Code positions control flow can enter: jump targets and function
   entries. A fused pattern must not swallow one as an interior
   instruction. (Return addresses need no marking: [ret_pc] is captured
   from the rewritten code at call time, and no pattern begins with
   [Call].) *)
let entry_points (p : Program.t) =
  let ncode = Array.length p.code in
  let t = Array.make (max 1 ncode) false in
  let mark x = if x >= 0 && x < ncode then t.(x) <- true in
  Array.iter (fun (f : Program.funcdesc) -> mark f.Program.entry) p.funcs;
  Array.iter (fun op -> Option.iter mark (Opcode.target op)) p.code;
  t

(* The operator of [op] when it may fuse with the constant right
   operand [k]: division and modulo only by a non-zero constant. *)
let binop_k k op =
  match Opcode.binop op with
  | Some b when k <> 0 || not (Opcode.bink_divlike b) -> Some b
  | _ -> None

let jnz = function Opcode.Jnz _ -> true | _ -> false

(* Longest match first at [i]; returns the fused opcode and the number
   of plain instructions it consumes. [free k] means instruction i+k
   exists and is not an entry point (so it may be swallowed). *)
let match_at code free i =
  let len4 =
    if free 1 && free 2 && free 3 then
      match (code.(i), code.(i + 1), code.(i + 2), code.(i + 3)) with
      | Opcode.Load_local n, Opcode.Const k, Opcode.Add, Opcode.Store_local n'
        when n = n' ->
          Some (Opcode.Local_addk (n, k), 4)
      | ( Opcode.Load_local n,
          Opcode.Const k,
          c,
          ((Opcode.Jz t | Opcode.Jnz t) as j) )
        when Opcode.cmpop c <> None ->
          Some
            (Opcode.Jcmpk_local (Option.get (Opcode.cmpop c), n, k, jnz j, t), 4)
      | ( Opcode.Load_local s1,
          Opcode.Store_local d1,
          Opcode.Load_local s2,
          Opcode.Store_local d2 ) ->
          Some (Opcode.Move_local2 (d1, s1, d2, s2), 4)
      | _ -> None
    else None
  in
  let len3 () =
    if free 1 && free 2 then
      match (code.(i), code.(i + 1), code.(i + 2)) with
      | Opcode.Const k, c, ((Opcode.Jz t | Opcode.Jnz t) as j)
        when Opcode.cmpop c <> None ->
          Some (Opcode.Jcmpk (Option.get (Opcode.cmpop c), k, jnz j, t), 3)
      | Opcode.Load_local a, Opcode.Load_local b, op
        when Opcode.total_binop op <> None ->
          Some (Opcode.Bin_local2 (Option.get (Opcode.total_binop op), a, b), 3)
      | Opcode.Const k, op, Opcode.Store_local n when binop_k k op <> None ->
          Some (Opcode.Bink_store (Option.get (binop_k k op), k, n), 3)
      | Opcode.Load_local n, Opcode.Const k, op when binop_k k op <> None ->
          Some (Opcode.Bink_local (Option.get (binop_k k op), n, k), 3)
      | Opcode.Load_local n, Opcode.Aload a, op
        when Opcode.total_binop op <> None ->
          Some
            (Opcode.Bin_aload_local (Option.get (Opcode.total_binop op), a, n), 3)
      | Opcode.Load_local n, Opcode.Aload a, Opcode.Store_local dst ->
          Some (Opcode.Aload_local_store (a, n, dst), 3)
      | _ -> None
    else None
  in
  let len2 () =
    if free 1 then
      match (code.(i), code.(i + 1)) with
      | Opcode.Const k, op when binop_k k op <> None ->
          Some (Opcode.Bink (Option.get (binop_k k op), k), 2)
      | Opcode.Const k, c when Opcode.cmpop c <> None ->
          Some (Opcode.Cmpk (Option.get (Opcode.cmpop c), k), 2)
      | Opcode.Const k, Opcode.Aload a -> Some (Opcode.Aload_k (a, k), 2)
      | Opcode.Const k, Opcode.Store_local n ->
          Some (Opcode.Store_localk (n, k), 2)
      | c, ((Opcode.Jz t | Opcode.Jnz t) as j) when Opcode.cmpop c <> None ->
          Some (Opcode.Jcmp (Option.get (Opcode.cmpop c), jnz j, t), 2)
      | Opcode.Load_local a, Opcode.Load_local b ->
          Some (Opcode.Load_local2 (a, b), 2)
      | Opcode.Load_local n, op when Opcode.total_binop op <> None ->
          Some (Opcode.Bin_local (Option.get (Opcode.total_binop op), n), 2)
      | Opcode.Load_local n, Opcode.Aload a ->
          Some (Opcode.Aload_local (a, n), 2)
      | Opcode.Load_local src, Opcode.Store_local dst ->
          Some (Opcode.Move_local (dst, src), 2)
      | op, Opcode.Store_local n when Opcode.total_binop op <> None ->
          Some (Opcode.Bin_store (Option.get (Opcode.total_binop op), n), 2)
      | _ -> None
    else None
  in
  match len4 with
  | Some _ as r -> r
  | None -> ( match len3 () with Some _ as r -> r | None -> len2 ())

(** Fuse dispatch pairs in [p]'s code, remapping every jump target and
    function extent onto the shortened array. With [bounded:true] the
    counted-loop windows of every backward [Jmp] stay unfused.
    Idempotent on its own output (fused opcodes never match a pattern
    head). *)
let optimize ?(bounded = false) (p : Program.t) : Program.t =
  let code = p.code in
  let ncode = Array.length code in
  let is_entry = entry_points p in
  (* Under bounded loading the loop windows must reach the verifier
     byte for byte: it derives the trip count from the exact [Const;
     Store_local] initialiser, [Load_local; Const; CMP; Jz] head and
     [Load_local; Const; Add/Sub; Store_local] step, so none of those
     positions may head or be swallowed by a fusion pattern. The body
     between them is fair game. *)
  let no_fuse = Array.make (max 1 ncode) false in
  if bounded then
    Array.iteri
      (fun b op ->
        match op with
        | Opcode.Jmp t when t <= b ->
            let pin lo hi =
              for pc = max 0 lo to min (ncode - 1) hi do
                no_fuse.(pc) <- true
              done
            in
            pin (t - 2) (t + 3);
            pin (b - 4) b
        | _ -> ())
      code;
  (* map.(old_pc) = new_pc for every pattern head; interior positions
     keep -1 and are provably never referenced. *)
  let map = Array.make (ncode + 1) (-1) in
  let out = Array.make (max 1 ncode) Opcode.Halt in
  let olen = ref 0 in
  let i = ref 0 in
  while !i < ncode do
    let at = !i in
    map.(at) <- !olen;
    let free k =
      at + k < ncode && (not is_entry.(at + k)) && not no_fuse.(at + k)
    in
    let op, consumed =
      match if no_fuse.(at) then None else match_at code free at with
      | Some (fused, w) -> (fused, w)
      | None -> (code.(at), 1)
    in
    out.(!olen) <- op;
    incr olen;
    i := at + consumed
  done;
  map.(ncode) <- !olen;
  let remap x =
    let y = if x >= 0 && x <= ncode then map.(x) else -1 in
    if y < 0 then invalid_arg "Peephole.optimize: unmappable jump target";
    y
  in
  let code' = Array.init !olen (fun j -> Opcode.map_target remap out.(j)) in
  let funcs =
    Array.map
      (fun (f : Program.funcdesc) ->
        { f with Program.entry = remap f.Program.entry;
                 code_end = remap f.Program.code_end })
      p.funcs
  in
  { p with Program.code = code'; funcs }
