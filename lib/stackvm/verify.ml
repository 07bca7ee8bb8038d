(** Load-time bytecode verifier, in the spirit of the Java verifier the
    paper's interpreted technology relies on.

    Pass 1 runs an abstract interpretation over stack heights: every
    reachable instruction must have a single consistent operand-stack
    height, never underflow, never exceed [max_stack], never jump
    outside its own function, and only reference valid locals, arrays,
    functions and externs. Pass 2, an interval analysis, derives the
    operand range at every check site: it decides the static tier's
    elisions ({!elide}) and admits an unchecked instruction only where
    the range it derived there is legal. Pass 3 (bounded loading)
    derives each loop's bound. Every judgement rests on the code alone;
    code that fails is rejected before it ever executes. *)

let max_stack = 1024
let max_locals = 4096

module I = Graft_analysis.Interval
module Ir = Graft_gel.Ir

(* ------------------------------------------------------------------ *)
(* Pass 2: the interval analysis behind every check elision.           *)
(*                                                                     *)
(* Per-function dataflow over an abstract operand stack and local file *)
(* derives, from the bytecode alone, the operand interval at every     *)
(* check site. One legality test ([site_fault]) serves both sides:     *)
(* [elide] turns a checked site whose derived interval passes it into  *)
(* its unchecked twin, and [verify] admits an unchecked instruction    *)
(* only if the interval derived at it passes it. Operand provenance    *)
(* (which local or constant produced a stack slot) is tracked just far *)
(* enough for two refinements: comparison-guarded branches, and the    *)
(* success path of a checked array access.                             *)
(* ------------------------------------------------------------------ *)

(* Provenance of an abstract stack slot. [Snot] preserves truthiness
   through boolean negation so guard refinement can flip it back. *)
type src = Sloc of int | Sk of int | Stop
type sym = Snone | Sconst of int | Slocal of int | Snot of sym
         | Scmp of Ir.cmp * src * src

(* A write to local [n] invalidates any provenance that mentions it:
   the recorded comparison still holds of the old value, not the new
   one. *)
let rec kill_sym n = function
  | Slocal m when m = n -> Snone
  | Snot s -> Snot (kill_sym n s)
  | Scmp (c, a, b) ->
      let k = function Sloc m when m = n -> Stop | s -> s in
      Scmp (c, k a, k b)
  | s -> s

let src_of = function Sconst k -> Sk k | Slocal n -> Sloc n | _ -> Stop

(* Assume the value described by [sym] tested [truth] and narrow
   [locals] in place; returns [false] when the assumption is
   contradictory, i.e. the edge is unreachable. *)
let rec refine_sym locals sym truth =
  match sym with
  | Snone -> true
  | Sconst k -> (k <> 0) = truth
  | Snot s -> refine_sym locals s (not truth)
  | Slocal n ->
      let c = if truth then Ir.Ne else Ir.Eq in
      let iv', _ = I.refine_cmp c locals.(n) (I.const 0) in
      if I.is_bot iv' then false
      else begin
        locals.(n) <- iv';
        true
      end
  | Scmp (c, a, b) ->
      let c = if truth then c else I.negate_cmp c in
      let side = function
        | Sloc n -> locals.(n)
        | Sk k -> I.const k
        | Stop -> I.top
      in
      let ia', ib' = I.refine_cmp c (side a) (side b) in
      if I.is_bot ia' || I.is_bot ib' then false
      else begin
        (match a with Sloc n -> locals.(n) <- ia' | _ -> ());
        (match b with Sloc n -> locals.(n) <- ib' | _ -> ());
        true
      end

(* The interval transfer functions behind each fused-operand
   selector. Kind-erased operators (div, mod, bitwise) use the int
   rules, which [I.arith] makes sound for word operands too. *)
let ir_arith = function
  | Opcode.KAdd -> (Ir.Kint, Ir.Add)
  | Opcode.KSub -> (Ir.Kint, Ir.Sub)
  | Opcode.KMul -> (Ir.Kint, Ir.Mul)
  | Opcode.KDiv -> (Ir.Kint, Ir.Div)
  | Opcode.KMod -> (Ir.Kint, Ir.Mod)
  | Opcode.KShl -> (Ir.Kint, Ir.Shl)
  | Opcode.KShr -> (Ir.Kint, Ir.Shr)
  | Opcode.KLshr -> (Ir.Kint, Ir.Lshr)
  | Opcode.KBand -> (Ir.Kint, Ir.Band)
  | Opcode.KBor -> (Ir.Kint, Ir.Bor)
  | Opcode.KBxor -> (Ir.Kint, Ir.Bxor)
  | Opcode.KWadd -> (Ir.Kword, Ir.Add)
  | Opcode.KWsub -> (Ir.Kword, Ir.Sub)
  | Opcode.KWmul -> (Ir.Kword, Ir.Mul)
  | Opcode.KWshl -> (Ir.Kword, Ir.Shl)
  | Opcode.KWshr -> (Ir.Kword, Ir.Shr)

let ir_cmp = function
  | Opcode.Clt -> Ir.Lt
  | Opcode.Cle -> Ir.Le
  | Opcode.Cgt -> Ir.Gt
  | Opcode.Cge -> Ir.Ge
  | Opcode.Ceq -> Ir.Eq
  | Opcode.Cne -> Ir.Ne

(* Why the unchecked instruction [op] at [pc] is unsafe for an operand
   in [iv], or [None] when every value of [iv] is legal there. *)
let site_fault (p : Program.t) pc op iv =
  let fault fmt = Printf.ksprintf Option.some fmt in
  let beyond len = not (I.leq iv (I.range 0 (len - 1))) in
  match op with
  | Opcode.Aload_u a | Opcode.Astore_u a ->
      if a < 0 || a >= Array.length p.arrays then
        fault "array id %d out of range at %d" a pc
      else if beyond p.arrays.(a).Program.len then
        fault "index %s at %d exceeds the bounds of array %d"
          (I.to_string iv) pc a
      else if op = Opcode.Astore_u a && not p.arrays.(a).Program.writable then
        fault "unchecked store to read-only array %d at %d" a pc
      else None
  | Opcode.Div_u | Opcode.Mod_u ->
      if I.contains iv 0 then
        fault "divisor %s at %d admits zero" (I.to_string iv) pc
      else None
  | _ -> fault "%s at %d is not an unchecked instruction" (Opcode.to_string op) pc

(* Pass 2 over every function, on the shared solver
   ({!Graft_analysis.Fixpoint}). Returns, per pc, the join of the
   operand intervals every visit of a check site saw (its index or
   divisor; ⊥ at a pc no path reaches and at every other
   instruction) and whether any path reached the pc, and fails at an
   unchecked instruction whose joined interval is ⊥ or fails
   [site_fault]. A site and its unchecked twin have the same transfer
   function, so swapping sites leaves this fixpoint as it is. *)
let check_elisions (p : Program.t) :
    (I.t array * bool array, int option * string) result =
  let ncode = Array.length p.code in
  let exception Bad of int * string in
  let bad pc fmt = Printf.ksprintf (fun msg -> raise (Bad (pc, msg))) fmt in
  let derived = Array.make ncode I.bot in
  let reached = Array.make ncode false in
  let sym_join a b = if a = b then a else Snone in
  (* Pass 1 gave every pc one stack height, so stacks meeting at a pc
     have equal lengths. An arrival inside the stored state changes
     nothing, and is told apart before anything is allocated. *)
  let merge ~wide (ol, os) (locals, stack) =
    if
      Array.for_all2 (fun o v -> I.leq v o) ol locals
      && List.for_all2
           (fun (oiv, osym) (iv, sym) ->
             I.leq iv oiv && (osym = sym || osym = Snone))
           os stack
    then None
    else
      let up old now =
        let j = I.join old now in
        if wide then I.widen old j else j
      in
      Some
        ( Array.map2 up ol locals,
          List.map2
            (fun (oiv, osym) (iv, sym) -> (up oiv iv, sym_join osym sym))
            os stack )
  in
  let check_func fi (f : Program.funcdesc) =
    let transfer pc (locals0, stack0) schedule =
      let locals = Array.copy locals0 in
      let stack = ref stack0 in
      let push iv sym = stack := (iv, sym) :: !stack in
      let pop () =
        match !stack with
        | [] ->
            bad pc "function %d (%s): pass-2 underflow at %d" fi f.Program.name
              pc
        | e :: rest ->
            stack := rest;
            e
      in
      let next () = schedule (pc + 1) (locals, !stack) in
      (* The operand a check site guards, joined into [derived]. *)
      let site iv =
        if not (I.leq iv derived.(pc)) then
          derived.(pc) <- I.join derived.(pc) iv
      in
      (* On the success path of an array access, a plain-local index is
         known in bounds. *)
      let post_refine sym arr =
        match sym with
        | Slocal n ->
            locals.(n) <-
              I.meet locals.(n) (I.range 0 (p.arrays.(arr).Program.len - 1))
        | _ -> ()
      in
      let store_local n iv =
        locals.(n) <- iv;
        stack := List.map (fun (iv, s) -> (iv, kill_sym n s)) !stack
      in
      let binop b =
        let kind, op = ir_arith b in
        let ib, _ = pop () in
        let ia, _ = pop () in
        push (I.arith kind op ia ib) Snone
      in
      let divide op =
        let ib, _ = pop () in
        let ia, _ = pop () in
        site ib;
        push (I.arith Ir.Kint op ia ib) Snone
      in
      let unop f =
        let iv, _ = pop () in
        push (f iv) Snone
      in
      let cmp c =
        let _, sb = pop () in
        let _, sa = pop () in
        push I.bool_result (Scmp (ir_cmp c, src_of sa, src_of sb))
      in
      let branch target ~jump_truth =
        let iv, sym = pop () in
        let can_false = I.contains iv 0 in
        let can_true = not (I.leq iv (I.const 0)) in
        let edge tgt truth feasible =
          if feasible then begin
            let l2 = Array.copy locals in
            if refine_sym l2 sym truth then schedule tgt (l2, !stack)
          end
        in
        edge target jump_truth (if jump_truth then can_true else can_false);
        edge (pc + 1) (not jump_truth)
          (if jump_truth then can_false else can_true)
      in
      match p.code.(pc) with
      | Opcode.Const n ->
          push (I.const n) (Sconst n);
          next ()
      | Opcode.Load_local n ->
          push locals.(n) (Slocal n);
          next ()
      | Opcode.Store_local n ->
          let iv, _ = pop () in
          store_local n iv;
          next ()
      | Opcode.Load_global _ ->
          push I.top Snone;
          next ()
      | Opcode.Store_global _ ->
          ignore (pop ());
          next ()
      | Opcode.Aload a | Opcode.Aload_u a ->
          let iv, si = pop () in
          site iv;
          post_refine si a;
          push I.top Snone;
          next ()
      | Opcode.Astore a | Opcode.Astore_u a ->
          ignore (pop ());
          let iv, si = pop () in
          site iv;
          post_refine si a;
          next ()
      | Opcode.Div | Opcode.Div_u ->
          divide Ir.Div;
          next ()
      | Opcode.Mod | Opcode.Mod_u ->
          divide Ir.Mod;
          next ()
      | op when Opcode.binop op <> None ->
          binop (Option.get (Opcode.binop op));
          next ()
      | op when Opcode.cmpop op <> None ->
          cmp (Option.get (Opcode.cmpop op));
          next ()
      | Opcode.Bnot -> unop (I.bnot Ir.Kint); next ()
      | Opcode.Neg -> unop (I.neg_k Ir.Kint); next ()
      | Opcode.Wbnot -> unop (I.bnot Ir.Kword); next ()
      | Opcode.Wneg -> unop (I.neg_k Ir.Kword); next ()
      | Opcode.Wmask -> unop I.to_word; next ()
      | Opcode.Tobool ->
          (* Truth-preserving: keep the provenance so a later branch can
             still refine through it. *)
          let _, s = pop () in
          push I.bool_result s;
          next ()
      | Opcode.Not ->
          let _, s = pop () in
          push I.bool_result (Snot s);
          next ()
      | Opcode.Jmp t -> schedule t (locals, !stack)
      | Opcode.Jz t -> branch t ~jump_truth:false
      | Opcode.Jnz t -> branch t ~jump_truth:true
      | Opcode.Call target ->
          for _ = 1 to p.funcs.(target).Program.nargs do
            ignore (pop ())
          done;
          push I.top Snone;
          next ()
      | Opcode.Callext target ->
          for _ = 1 to p.ext_arity.(target) do
            ignore (pop ())
          done;
          push I.top Snone;
          next ()
      | Opcode.Ret -> ignore (pop ())
      | Opcode.Pop ->
          ignore (pop ());
          next ()
      | Opcode.Dup ->
          let iv, s = pop () in
          push iv s;
          push iv s;
          next ()
      | Opcode.Halt ->
          (* Pass 1 rejects any reachable Halt, and this pass explores
             a subset of pass 1's reachable set. *)
          ()
      | instr ->
          (* Fused superinstructions: modelled conservatively — operand
             effects from the opcode table, written locals havocked, no
             refinement. Only the optimizing tier fuses, and it elides
             nothing, so precision here is irrelevant; soundness against
             hand-crafted programs is not. *)
          let pops, pushes = Opcode.effect instr in
          for _ = 1 to pops do
            ignore (pop ())
          done;
          for _ = 1 to pushes do
            push I.top Snone
          done;
          List.iter (fun n -> store_local n I.top) (Opcode.writes instr);
          Option.iter
            (fun t -> schedule t (Array.copy locals, !stack))
            (Opcode.target instr);
          next ()
    in
    let lo = f.Program.entry in
    Array.iteri
      (fun i st -> reached.(lo + i) <- st <> None)
      (Graft_analysis.Fixpoint.solve ~lo ~hi:f.Program.code_end
         ~target:(fun pc -> Opcode.target p.code.(pc))
         ~merge ~transfer
         [ (lo, (Array.make (max 1 f.Program.nlocals) I.top, [])) ])
  in
  try
    Array.iteri check_func p.funcs;
    (* An unchecked instruction must be one this pass reaches (dead
       unchecked code is weight no loader has any business shipping)
       with a legal operand interval. *)
    Array.iteri
      (fun pc op ->
        if Opcode.is_unchecked op then
          if I.is_bot derived.(pc) then
            bad pc "unchecked instruction %s at %d that no path reaches"
              (Opcode.to_string op) pc
          else Option.iter (bad pc "%s") (site_fault p pc op derived.(pc)))
      p.code;
    Ok (derived, reached)
  with Bad (pc, msg) -> Error (Some pc, msg)


(* ------------------------------------------------------------------ *)
(* Pass 3 (bounded loading only): a backward jump is admitted only as  *)
(* the back edge of a counted loop whose bound this pass derives.      *)
(*                                                                     *)
(* The pass reads the canonical counted-loop windows straight from the *)
(* bytecode — init [Const v; Store_local c] immediately before the     *)
(* head, head [Load_local c; Const k; CMP; Jz exit], step              *)
(* [Load_local c; Const s; Add/Sub; Store_local c] immediately before  *)
(* the backward Jmp — and requires a finite closed-form trip count,    *)
(* no other write to the counter inside the loop, and the entry rule   *)
(* of {!Graft_analysis.Loopbound.entry_fault}, so the derived bound    *)
(* covers every execution that can reach the back edge.                *)
(* ------------------------------------------------------------------ *)

let check_bounds (p : Program.t) : (unit, int option * string) result =
  let ncode = Array.length p.code in
  let exception Bad of int * string in
  let disasm pc = Opcode.to_string p.code.(pc) in
  let bad pc what =
    raise (Bad (pc, Printf.sprintf "%s at %d (%s)" what pc (disasm pc)))
  in
  let entries =
    Array.to_list
      (Array.map (fun (f : Program.funcdesc) -> (f.Program.name, f.Program.entry))
         p.funcs)
  in
  (* Derive the bound of the loop a backward [Jmp t] at [b] closes. *)
  let check_loop b t =
    let fail reason =
      raise (Bad (b, Printf.sprintf "backward jump at %d (%s): %s" b (disasm b) reason))
    in
    (* The whole loop, initialiser included, must sit inside one
       function so the windows cannot straddle an entry point. *)
    let in_one_func =
      Array.exists
        (fun (f : Program.funcdesc) ->
          t - 2 >= f.Program.entry && b < f.Program.code_end)
        p.funcs
    in
    if t < 2 || b - 4 < t + 4 || not in_one_func then
      fail "loop too small to hold the counted-loop windows";
    (* Head: Load_local c; Const k; CMP; Jz exit, with exit past b. *)
    let counter =
      match p.code.(t) with
      | Opcode.Load_local n -> n
      | _ -> fail "loop head does not read a counter local"
    in
    let limit =
      match p.code.(t + 1) with
      | Opcode.Const k -> k
      | _ -> fail "loop head has no constant limit"
    in
    let cmp =
      match Option.map ir_cmp (Opcode.cmpop p.code.(t + 2)) with
      | Some ((Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as cm) -> cm
      | _ -> fail "loop head comparison is not Lt/Le/Gt/Ge"
    in
    (match p.code.(t + 3) with
    | Opcode.Jz e when e > b -> ()
    | _ -> fail "loop head does not exit past the back edge");
    (* Initialiser: Const v; Store_local c immediately before the head. *)
    let init =
      match (p.code.(t - 2), p.code.(t - 1)) with
      | Opcode.Const v, Opcode.Store_local n when n = counter -> v
      | _ -> fail "counter has no constant initialiser before the loop"
    in
    (* Step: Load_local c; Const s; Add/Sub; Store_local c just before
       the back edge. *)
    let step, down =
      match
        (p.code.(b - 4), p.code.(b - 3), p.code.(b - 2), p.code.(b - 1))
      with
      | ( Opcode.Load_local n,
          Opcode.Const s,
          (Opcode.Add | Opcode.Sub),
          Opcode.Store_local n' )
        when n = counter && n' = counter ->
          (s, p.code.(b - 2) = Opcode.Sub)
      | _ -> fail "back edge is not preceded by a constant counter step"
    in
    if step < 1 then fail "counter step is not positive";
    (match (cmp, down) with
    | (Ir.Lt | Ir.Le), false | (Ir.Gt | Ir.Ge), true -> ()
    | _ -> fail "counter step does not advance toward the limit");
    (* The step window is the only counter write inside the loop. *)
    for pc = t to b do
      if pc <> b - 1 && List.mem counter (Opcode.writes p.code.(pc)) then
        fail
          (Printf.sprintf "counter is also written at %d (%s)" pc (disasm pc))
    done;
    Option.iter
      (fun msg -> raise (Bad (b, msg)))
      (Graft_analysis.Loopbound.entry_fault
         ~target:(fun pc -> Opcode.target p.code.(pc))
         ~ncode ~entries ~init:(t - 2) ~back:b ~step_len:4);
    if Graft_analysis.Loopbound.trips ~init ~limit ~cmp ~step = None then
      fail "trip count diverges or exceeds the ceiling"
  in
  try
    Array.iteri
      (fun pc instr ->
        match (instr, Opcode.target instr) with
        | _, None -> ()
        | _, Some t when t > pc -> ()
        | Opcode.Jmp _, Some t -> check_loop pc t
        | (Opcode.Jz _ | Opcode.Jnz _), _ -> bad pc "conditional backward jump"
        | _ -> bad pc "fused backward jump")
      p.code;
    Ok ()
  with Bad (pc, msg) -> Error (Some pc, msg)

(* ------------------------------------------------------------------ *)
(* Pass 1: tables, operands, and one stack height per reachable pc.    *)
(* ------------------------------------------------------------------ *)

type heights = { at : int array; fmax : int array }

let heights (p : Program.t) : (heights, int option * string) result =
  let ncode = Array.length p.code in
  let nfuncs = Array.length p.funcs in
  let narrays = Array.length p.arrays in
  let nexterns = Array.length p.host in
  let exception Bad of int option * string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad (None, msg))) fmt in
  (* Static tables. *)
  let check_tables () =
    if Array.length p.ext_arity <> nexterns then
      bad "extern arity table length mismatch";
    if Array.length p.ext_names <> nexterns then
      bad "extern name table length mismatch";
    (* Helper-named externs must match the typed helper table: every
       verifier holds grafts to the same helper ABI. *)
    Array.iteri
      (fun i name ->
        match Graft_analysis.Helpers.find name with
        | Some h when p.ext_arity.(i) <> h.Graft_analysis.Helpers.h_arity ->
            bad "extern %d (%s): arity %d does not match helper signature %d" i
              name p.ext_arity.(i) h.Graft_analysis.Helpers.h_arity
        | _ -> ())
      p.ext_names;
    Array.iteri
      (fun i (f : Program.funcdesc) ->
        if f.Program.entry < 0 || f.Program.entry > f.Program.code_end
           || f.Program.code_end > ncode then
          bad "function %d (%s): bad code extent" i f.Program.name;
        if f.Program.nargs < 0 || f.Program.nargs > f.Program.nlocals then
          bad "function %d (%s): more args than locals" i f.Program.name;
        if f.Program.nlocals > max_locals then
          bad "function %d (%s): too many locals" i f.Program.name)
      p.funcs;
    Array.iteri
      (fun i (a : Program.arrdesc) ->
        if a.Program.base < 0 || a.Program.len < 0
           || a.Program.base + a.Program.len > Array.length p.cells then
          bad "array %d: descriptor outside the address space" i)
      p.arrays
  in
  let at = Array.make (max 1 ncode) (-1) in
  let fmax = Array.make (max 1 nfuncs) 0 in
  (* Per-function stack-height dataflow. *)
  let check_func fi (f : Program.funcdesc) =
    let lo = f.Program.entry and hi = f.Program.code_end in
    let heights = Array.make (hi - lo) (-1) in
    let worklist = Queue.create () in
    (* The instruction being checked (-1 before the first), which a
       failure names. *)
    let checking = ref (-1) in
    let bad fmt =
      Printf.ksprintf
        (fun msg ->
          raise (Bad ((if !checking < 0 then None else Some !checking), msg)))
        fmt
    in
    let schedule pc h =
      if pc < lo || pc >= hi then
        bad "function %d (%s): jump target %d outside [%d,%d)" fi
          f.Program.name pc lo hi;
      let cur = heights.(pc - lo) in
      if cur = -1 then begin
        heights.(pc - lo) <- h;
        Queue.add pc worklist
      end
      else if cur <> h then
        bad "function %d (%s): inconsistent stack height at %d (%d vs %d)" fi
          f.Program.name pc cur h
    in
    schedule lo 0;
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      checking := pc;
      let h = heights.(pc - lo) in
      let instr = p.code.(pc) in
      let pops, pushes =
        match instr with
        | Opcode.Call target ->
            if target < 0 || target >= nfuncs then
              bad "function %d (%s): call to invalid function %d" fi
                f.Program.name target;
            (p.funcs.(target).Program.nargs, 1)
        | Opcode.Callext target ->
            if target < 0 || target >= nexterns then
              bad "function %d (%s): call to invalid extern %d" fi
                f.Program.name target;
            (p.ext_arity.(target), 1)
        | op -> Opcode.effect op
      in
      if h < pops then
        bad "function %d (%s): stack underflow at %d (%s)" fi f.Program.name
          pc (Opcode.to_string instr);
      let h' = h - pops + pushes in
      if h' > max_stack then
        bad "function %d (%s): stack overflow at %d" fi f.Program.name pc;
      fmax.(fi) <- max fmax.(fi) (max h h');
      (* Fused division: only a non-zero constant divisor can be proven
         fault-free; anything else must stay a plain Div/Mod so the
         runtime fault path is preserved. *)
      (match instr with
      | Opcode.Bink (op, 0) | Opcode.Bink_store (op, 0, _)
      | Opcode.Bink_local (op, _, 0)
        when Opcode.bink_divlike op ->
          bad "function %d (%s): fused division by constant zero at %d" fi
            f.Program.name pc
      | Opcode.Bin_local (op, _) | Opcode.Bin_local2 (op, _, _)
        when Opcode.bink_divlike op ->
          bad "function %d (%s): fused division by a local at %d" fi
            f.Program.name pc
      | Opcode.Bin_store (op, _) | Opcode.Bin_aload_local (op, _, _)
        when Opcode.bink_divlike op ->
          bad "function %d (%s): fused division by a popped operand at %d" fi
            f.Program.name pc
      | _ -> ());
      (* Operand validity: array ids and global addresses, then
         locals. *)
      (match instr with
      | Opcode.Load_global a | Opcode.Store_global a ->
          if a < 0 || a >= Array.length p.cells then
            bad "function %d (%s): global address %d out of range" fi
              f.Program.name a
      | Opcode.Aload a | Opcode.Astore a | Opcode.Aload_u a
      | Opcode.Astore_u a | Opcode.Aload_k (a, _) | Opcode.Aload_local (a, _)
      | Opcode.Bin_aload_local (_, a, _) | Opcode.Aload_local_store (a, _, _) ->
          (* The constant index of [Aload_k] is deliberately not
             checked against the array length: the unfused form would
             fault at run time, and the fused form must preserve that
             behaviour rather than fail at load time. *)
          if a < 0 || a >= narrays then
            bad "function %d (%s): array id %d out of range" fi f.Program.name a
      | Opcode.Halt ->
          bad "function %d (%s): reachable halt at %d (unpatched jump?)" fi
            f.Program.name pc
      | _ -> ());
      List.iter
        (fun n ->
          if n < 0 || n >= f.Program.nlocals then
            bad "function %d (%s): local %d out of range at %d" fi
              f.Program.name n pc)
        (Opcode.locals instr);
      (* Successors. *)
      match (instr, Opcode.target instr) with
      | Opcode.Ret, _ -> ()
      | Opcode.Jmp _, Some t -> schedule t h'
      | _, Some t ->
          schedule t h';
          schedule (pc + 1) h'
      | _, None ->
          if pc + 1 >= hi then
            bad "function %d (%s): control falls off the end" fi f.Program.name;
          schedule (pc + 1) h'
    done;
    Array.blit heights 0 at lo (hi - lo)
  in
  try
    check_tables ();
    Array.iteri check_func p.funcs;
    Ok { at; fmax }
  with Bad (pc, msg) -> Error (pc, msg)

type derived = { heights : heights; operands : I.t array; reached : bool array }

(* Passes 1 and 3: everything but the interval analysis. *)
let structure ~bounded p =
  match heights p with
  | Error _ as e -> e
  | Ok h -> if bounded then Result.map (fun () -> h) (check_bounds p) else Ok h

let derive ?(bounded = false) (p : Program.t) =
  Result.bind (structure ~bounded p) (fun heights ->
      Result.map
        (fun (operands, reached) -> { heights; operands; reached })
        (check_elisions p))

let verify ?(bounded = false) (p : Program.t) : (unit, string) result =
  Result.map_error snd
    (if Array.exists Opcode.is_unchecked p.code then
       Result.map ignore (derive ~bounded p)
     else Result.map ignore (structure ~bounded p))

let elide ?bounded (p : Program.t) : (Program.t * derived, string) result =
  match derive ?bounded p with
  | Error (_, msg) -> Error msg
  | Ok d ->
      let code =
        Array.mapi
          (fun pc op ->
            let iv = d.operands.(pc) in
            match Opcode.check_site op with
            | Some (checked, unchecked)
              when op = checked
                   && (not (I.is_bot iv))
                   && site_fault p pc unchecked iv = None ->
                unchecked
            | _ -> op)
          p.code
      in
      Ok ({ p with Program.code }, d)
