(** Load-time bytecode verifier, in the spirit of the Java verifier the
    paper's interpreted technology relies on.

    Pass 1 runs an abstract interpretation over stack heights: every
    reachable instruction must have a single consistent operand-stack
    height, never underflow, never exceed [max_stack], never jump
    outside its own function, and only reference valid locals, arrays,
    functions and externs. Pass 3 (bounded loading) re-derives each
    loop's bound. Pass 2, an interval analysis, derives the operand
    range at every check site: it decides the static tier's elisions
    ({!elide}) and judges any claim a program arrives with. Code that
    fails is rejected before it ever executes. *)

let max_stack = 1024
let max_locals = 4096

module I = Graft_analysis.Interval
module Ir = Graft_gel.Ir

(* ------------------------------------------------------------------ *)
(* Pass 2: the interval analysis behind every check elision.           *)
(*                                                                     *)
(* Per-function dataflow over an abstract operand stack and local file *)
(* derives, from the bytecode alone, the operand interval at every     *)
(* check site. [elide] turns a checked site whose derived interval is  *)
(* inside its legal range into its unchecked twin and records that     *)
(* interval as the site's claim; [verify] admits an unchecked          *)
(* instruction that arrives with a claim only if derived ⊆ claim ⊆     *)
(* legal, so a claim, from this pass or from anywhere else, is never   *)
(* believed. Operand provenance (which local or constant produced a    *)
(* stack slot) is tracked just far enough for two refinements:         *)
(* comparison-guarded branches, and the success path of a checked      *)
(* array access.                                                       *)
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

(* Why [claim] does not make the unchecked instruction [op] at [pc]
   safe, or [None] when it does. *)
let claim_fault (p : Program.t) pc op claim =
  let fault fmt = Printf.ksprintf Option.some fmt in
  let beyond len = not (I.leq claim (I.range 0 (len - 1))) in
  match op with
  | Opcode.Aload_u a | Opcode.Astore_u a ->
      (* Pass 1 checks array ids only where a path reaches. *)
      if a < 0 || a >= Array.length p.arrays then
        fault "array id %d out of range at %d" a pc
      else if beyond p.arrays.(a).Program.len then
        fault "claim %s at %d exceeds the bounds of array %d"
          (I.to_string claim) pc a
      else if op = Opcode.Astore_u a && not p.arrays.(a).Program.writable then
        fault "unchecked store to read-only array %d at %d" a pc
      else None
  | Opcode.Div_u | Opcode.Mod_u ->
      if I.contains claim 0 then
        fault "claimed divisor %s at %d admits zero" (I.to_string claim) pc
      else None
  | Opcode.Mlookup_u m | Opcode.Mupdate_u m -> (
      if m < 0 || m >= Array.length p.maps then
        fault "map id %d out of range at %d" m pc
      else
        match Graft_kernel.Graftmap.backing p.maps.(m) with
        | None -> fault "unchecked access to non-array map %d at %d" m pc
        | Some _ ->
            if beyond (Graft_kernel.Graftmap.max_entries p.maps.(m)) then
              fault "claim %s at %d exceeds the bounds of map %d"
                (I.to_string claim) pc m
            else None)
  | _ -> fault "proof attached to a checked instruction at %d" pc

(* Pass 2 over every function, on the shared solver
   ({!Graft_analysis.Fixpoint}). Returns, per pc, the join of the
   operand intervals every visit of a check site saw (its index, map
   key or divisor; ⊥ at a pc no path reaches and at every other
   instruction) and whether any path reached the pc, and fails if an
   unchecked instruction lacks a legal claim or a visit derives an
   operand outside it. A site and its unchecked twin have the same
   transfer function, so swapping sites leaves this fixpoint as it
   is. *)
let check_elisions (p : Program.t) : (I.t array * bool array, string) result =
  let ncode = Array.length p.code in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  let claims = Hashtbl.create 16 in
  let derived = Array.make ncode I.bot in
  let reached = Array.make ncode false in
  let setup () =
    Array.iter
      (fun (pc, claim) ->
        if pc < 0 || pc >= ncode then bad "proof at invalid pc %d" pc;
        if Hashtbl.mem claims pc then bad "duplicate proof at %d" pc;
        Option.iter (bad "%s") (claim_fault p pc p.code.(pc) claim);
        Hashtbl.add claims pc claim)
      p.proofs
  in
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
            bad "function %d (%s): pass-2 underflow at %d" fi f.Program.name pc
        | e :: rest ->
            stack := rest;
            e
      in
      let next () = schedule (pc + 1) (locals, !stack) in
      (* The operand a check site guards: joined into [derived], and
         held to the claim where the check is elided. *)
      let site iv what =
        if not (I.leq iv derived.(pc)) then
          derived.(pc) <- I.join derived.(pc) iv;
        match Hashtbl.find_opt claims pc with
        | Some claim when not (I.leq iv claim) ->
            bad "function %d (%s): derived %s %s exceeds claim %s at %d" fi
              f.Program.name what (I.to_string iv) (I.to_string claim) pc
        | _ -> ()
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
        site ib "divisor";
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
          site iv "index";
          post_refine si a;
          push I.top Snone;
          next ()
      | Opcode.Astore a | Opcode.Astore_u a ->
          ignore (pop ());
          let iv, si = pop () in
          site iv "index";
          post_refine si a;
          next ()
      | Opcode.Mlookup _ | Opcode.Mlookup_u _ ->
          let iv, _ = pop () in
          site iv "map key";
          push I.top Snone;
          next ()
      | Opcode.Mupdate _ | Opcode.Mupdate_u _ ->
          ignore (pop ());
          let iv, _ = pop () in
          site iv "map key";
          push I.top Snone;
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
    setup ();
    (* Every unchecked instruction must carry a claim, even if this
       pass never reaches it: unreachable unchecked code is dead weight
       no loader has any business shipping. *)
    Array.iteri
      (fun pc op ->
        if Opcode.is_unchecked op && not (Hashtbl.mem claims pc) then
          bad "unchecked instruction without proof at %d" pc)
      p.code;
    Array.iteri check_func p.funcs;
    Ok (derived, reached)
  with Bad msg -> Error msg


(* ------------------------------------------------------------------ *)
(* Pass 3 (bounded loading only): backward jumps are admitted only     *)
(* under a loop-bound certificate the verifier re-derives itself.      *)
(*                                                                     *)
(* The certificate names a counter, its constant initialiser, limit    *)
(* and step, and a trip count. None of that is trusted: the pass       *)
(* re-reads the canonical counted-loop windows straight from the       *)
(* bytecode — init [Const v; Store_local c] immediately before the     *)
(* head, head [Load_local c; Const k; CMP; Jz exit], step              *)
(* [Load_local c; Const s; Add/Sub; Store_local c] immediately before  *)
(* the backward Jmp — recomputes the closed-form trip count, and       *)
(* requires exact agreement with the claim. It further checks that     *)
(* nothing else in the loop writes the counter and that no jump from   *)
(* outside enters the loop past the initialiser, so the re-derived     *)
(* bound covers every execution that can reach the back edge.          *)
(* ------------------------------------------------------------------ *)

let check_bounds (p : Program.t) : (unit, string) result =
  let ncode = Array.length p.code in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  let disasm pc = Opcode.to_string p.code.(pc) in
  (* Re-derive the loop windows for a backward [Jmp t] at [b] and check
     them against certificate [c]. *)
  let check_window b t (c : Graft_analysis.Loopbound.cert) =
    let fail reason = bad "backward jump at %d (%s): %s" b (disasm b) reason in
    (* The whole loop, initialiser included, must sit inside one
       function so the windows cannot straddle an entry point. *)
    let in_one_func =
      Array.exists
        (fun (f : Program.funcdesc) ->
          t - 2 >= f.Program.entry && b < f.Program.code_end)
        p.funcs
    in
    if t < 2 || b - 4 < t + 4 || not in_one_func then
      fail "loop too small to carry the certified windows";
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
    (* No jump from outside may enter past the initialiser: an entry
       that skips [Const v; Store_local c] — even one landing on the
       [Store_local] alone, which would seed the counter from an
       arbitrary stack value — would start the counter at an unproven
       value. Only [t - 2], the initialiser's [Const], is a legal entry. *)
    for pc = 0 to ncode - 1 do
      if pc < t - 2 || pc > b then
        Option.iter
          (fun u ->
            if u >= t - 1 && u <= b then
              bad "jump at %d (%s) enters a certified loop at %d" pc
                (disasm pc) u)
          (Opcode.target p.code.(pc))
    done;
    (* Nor may any jump — even from inside the body — land past the
       step window's start: reaching the back edge must mean the whole
       [Load_local; Const; Add; Store_local] step just ran, or a body
       jump straight to the back edge would iterate without ever
       advancing the counter and the certified bound would not cover
       that path. (A jump to b-4, the step's first instruction, is the
       compiled [continue] and runs the full step.) *)
    for pc = 0 to ncode - 1 do
      Option.iter
        (fun u ->
          if u > b - 4 && u <= b then
            bad "jump at %d (%s) enters a certified loop's step window at %d"
              pc (disasm pc) u)
        (Opcode.target p.code.(pc))
    done;
    (* Recompute the closed form and require exact agreement. *)
    match Graft_analysis.Loopbound.trips ~init ~limit ~cmp ~step with
    | None -> fail "re-derived trip count diverges or exceeds the ceiling"
    | Some n ->
        if
          c.Graft_analysis.Loopbound.c_counter <> counter
          || c.Graft_analysis.Loopbound.c_init <> init
          || c.Graft_analysis.Loopbound.c_limit <> limit
          || c.Graft_analysis.Loopbound.c_cmp <> cmp
          || c.Graft_analysis.Loopbound.c_step <> step
          || c.Graft_analysis.Loopbound.c_trips <> n
        then
          fail
            (Printf.sprintf "certificate (%s) does not match the re-derived bound"
               (Graft_analysis.Loopbound.to_string c))
  in
  let certs = Hashtbl.create 8 in
  try
    Array.iter
      (fun (pc, c) ->
        if pc < 0 || pc >= ncode then bad "loop certificate at invalid pc %d" pc;
        (match p.code.(pc) with
        | Opcode.Jmp t when t <= pc -> ()
        | _ ->
            bad "loop certificate at %d (%s) is not a backward jmp" pc
              (disasm pc));
        if Hashtbl.mem certs pc then bad "duplicate loop certificate at %d" pc;
        Hashtbl.add certs pc c)
      p.loop_bounds;
    Array.iteri
      (fun pc instr ->
        match (instr, Opcode.target instr) with
        | _, None -> ()
        | _, Some t when t > pc -> ()
        | Opcode.Jmp _, Some t -> (
            match Hashtbl.find_opt certs pc with
            | Some c -> check_window pc t c
            | None ->
                bad "backward jump at %d (%s) without a loop-bound certificate"
                  pc (disasm pc))
        | (Opcode.Jz _ | Opcode.Jnz _), _ ->
            bad "conditional backward jump at %d (%s)" pc (disasm pc)
        | _ -> bad "fused backward jump at %d (%s)" pc (disasm pc))
      p.code;
    Ok ()
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Pass 1: tables, operands, and one stack height per reachable pc.    *)
(* ------------------------------------------------------------------ *)

type heights = { at : int array; fmax : int array }

let heights (p : Program.t) : (heights, string) result =
  let ncode = Array.length p.code in
  let nfuncs = Array.length p.funcs in
  let narrays = Array.length p.arrays in
  let nexterns = Array.length p.host in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
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
      (* Operand validity: array, global and map ids, then locals. *)
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
      | Opcode.Mlookup m | Opcode.Mupdate m | Opcode.Mlookup_u m
      | Opcode.Mupdate_u m ->
          if m < 0 || m >= Array.length p.maps then
            bad "function %d (%s): map id %d out of range at %d (%s)" fi
              f.Program.name m pc (Opcode.to_string instr)
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
  with Bad msg -> Error msg

type derived = { heights : heights; operands : I.t array; reached : bool array }

(* Passes 1 and 3: everything but the interval analysis. *)
let structure ~bounded p =
  match heights p with
  | Error _ as e -> e
  | Ok h -> if bounded then Result.map (fun () -> h) (check_bounds p) else Ok h

let derive ?(bounded = false) (p : Program.t) : (derived, string) result =
  Result.bind (structure ~bounded p) (fun heights ->
      Result.map
        (fun (operands, reached) -> { heights; operands; reached })
        (check_elisions p))

let verify ?(bounded = false) (p : Program.t) : (unit, string) result =
  if Array.length p.proofs = 0 && not (Array.exists Opcode.is_unchecked p.code)
  then Result.map ignore (structure ~bounded p)
  else Result.map ignore (derive ~bounded p)

let elide ?bounded (p : Program.t) : (Program.t * derived, string) result =
  Result.map
    (fun d ->
      let code = Array.copy p.code in
      let fresh = ref [] in
      for pc = Array.length code - 1 downto 0 do
        let iv = d.operands.(pc) in
        match Opcode.check_site code.(pc) with
        | Some (checked, unchecked)
          when code.(pc) = checked
               && (not (I.is_bot iv))
               && claim_fault p pc unchecked iv = None ->
            code.(pc) <- unchecked;
            fresh := (pc, iv) :: !fresh
        | _ -> ()
      done;
      let proofs = Array.append p.proofs (Array.of_list !fresh) in
      Array.stable_sort (fun (a, _) (b, _) -> compare a b) proofs;
      ({ p with Program.code; proofs }, d))
    (derive ?bounded p)
