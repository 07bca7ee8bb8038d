(** Compiler from GEL IR to stack bytecode.

    Compilation happens against a linked image so global and array
    addresses are absolute. Short-circuit operators and loops lower to
    conditional jumps; [continue] jumps to the loop's step block and
    [break] past the loop, both back-patched once the loop extent is
    known. The output is fully checked and carries nothing beside the
    code: the verifier derives elisions and loop bounds itself. *)

open Graft_gel

type emitter = {
  mutable code : Opcode.t array;
  mutable len : int;
}

let emit em op =
  if em.len = Array.length em.code then begin
    let bigger = Array.make (max 64 (2 * em.len)) Opcode.Halt in
    Array.blit em.code 0 bigger 0 em.len;
    em.code <- bigger
  end;
  em.code.(em.len) <- op;
  em.len <- em.len + 1

(** Emit a placeholder jump; returns its index for back-patching. *)
let emit_patch em =
  emit em Opcode.Halt;
  em.len - 1

type loop_ctx = {
  mutable breaks : int list;
  mutable continues : int list;
}

type ctx = {
  em : emitter;
  image : Link.image;
  mutable loops : loop_ctx list;
  bounds : bool;  (** refuse any loop whose bound cannot be derived *)
  mutable prev : Ir.stmt option;
      (** statement lexically preceding the one being compiled: the
          counter's initialiser when a loop follows *)
  mutable starts_rev : (int * Srcloc.pos) list;
      (** each [Ir.At] statement's first pc, latest first *)
}

let rec compile_expr ctx (e : Ir.expr) =
  let em = ctx.em in
  match e with
  | Ir.Const n -> emit em (Opcode.Const n)
  | Ir.Local slot -> emit em (Opcode.Load_local slot)
  | Ir.Global slot ->
      emit em (Opcode.Load_global (ctx.image.Link.global_base + slot))
  | Ir.Load (arr, idx) ->
      compile_expr ctx idx;
      emit em (Opcode.Aload arr)
  | Ir.Arith (kind, op, a, b) ->
      compile_expr ctx a;
      compile_expr ctx b;
      emit em (arith_op kind op)
  | Ir.Cmp (cmp, a, b) ->
      compile_expr ctx a;
      compile_expr ctx b;
      emit em
        (match cmp with
        | Ir.Lt -> Opcode.Lt
        | Ir.Le -> Opcode.Le
        | Ir.Gt -> Opcode.Gt
        | Ir.Ge -> Opcode.Ge
        | Ir.Eq -> Opcode.Eq
        | Ir.Ne -> Opcode.Ne)
  | Ir.Not a ->
      compile_expr ctx a;
      emit em Opcode.Not
  | Ir.Bnot (k, a) ->
      compile_expr ctx a;
      emit em (if k = Ir.Kword then Opcode.Wbnot else Opcode.Bnot)
  | Ir.Neg (k, a) ->
      compile_expr ctx a;
      emit em (if k = Ir.Kword then Opcode.Wneg else Opcode.Neg)
  | Ir.And (a, b) ->
      (* a && b: if !a then 0 else bool(b) *)
      compile_expr ctx a;
      let jz = emit_patch em in
      compile_expr ctx b;
      emit em Opcode.Tobool;
      let jend = emit_patch em in
      em.code.(jz) <- Opcode.Jz em.len;
      emit em (Opcode.Const 0);
      em.code.(jend) <- Opcode.Jmp em.len
  | Ir.Or (a, b) ->
      compile_expr ctx a;
      let jnz = emit_patch em in
      compile_expr ctx b;
      emit em Opcode.Tobool;
      let jend = emit_patch em in
      em.code.(jnz) <- Opcode.Jnz em.len;
      emit em (Opcode.Const 1);
      em.code.(jend) <- Opcode.Jmp em.len
  | Ir.Call (fidx, args) ->
      Array.iter (compile_expr ctx) args;
      emit em (Opcode.Call fidx)
  | Ir.CallExt (eidx, args) ->
      Array.iter (compile_expr ctx) args;
      emit em (Opcode.Callext eidx)
  | Ir.ToWord a ->
      compile_expr ctx a;
      emit em Opcode.Wmask
  | Ir.ToBool a ->
      compile_expr ctx a;
      emit em Opcode.Tobool

and arith_op kind op =
  match (kind, op) with
  | Ir.Kint, Ir.Add -> Opcode.Add
  | Ir.Kint, Ir.Sub -> Opcode.Sub
  | Ir.Kint, Ir.Mul -> Opcode.Mul
  | _, Ir.Div -> Opcode.Div
  | _, Ir.Mod -> Opcode.Mod
  | Ir.Kint, Ir.Shl -> Opcode.Shl
  | Ir.Kint, Ir.Shr -> Opcode.Shr
  | Ir.Kint, Ir.Lshr -> Opcode.Lshr
  | _, Ir.Band -> Opcode.Band
  | _, Ir.Bor -> Opcode.Bor
  | _, Ir.Bxor -> Opcode.Bxor
  | Ir.Kword, Ir.Add -> Opcode.Wadd
  | Ir.Kword, Ir.Sub -> Opcode.Wsub
  | Ir.Kword, Ir.Mul -> Opcode.Wmul
  | Ir.Kword, Ir.Shl -> Opcode.Wshl
  | Ir.Kword, (Ir.Shr | Ir.Lshr) -> Opcode.Wshr

let rec compile_stmt ctx (s : Ir.stmt) =
  let em = ctx.em in
  match s with
  | Ir.At (pos, s) ->
      ctx.starts_rev <- (em.len, pos) :: ctx.starts_rev;
      compile_stmt ctx s
  | Ir.Set_local (slot, e) ->
      compile_expr ctx e;
      emit em (Opcode.Store_local slot)
  | Ir.Set_global (slot, e) ->
      compile_expr ctx e;
      emit em (Opcode.Store_global (ctx.image.Link.global_base + slot))
  | Ir.Store (arr, idx, v) ->
      compile_expr ctx idx;
      compile_expr ctx v;
      emit em (Opcode.Astore arr)
  | Ir.If (cond, t, f) ->
      compile_expr ctx cond;
      let jz = emit_patch em in
      compile_block ctx t;
      if f = [] then em.code.(jz) <- Opcode.Jz em.len
      else begin
        let jend = emit_patch em in
        em.code.(jz) <- Opcode.Jz em.len;
        compile_block ctx f;
        em.code.(jend) <- Opcode.Jmp em.len
      end
  | Ir.While (cond, body, step) ->
      let prev = ctx.prev in
      let top = em.len in
      compile_expr ctx cond;
      let jexit = emit_patch em in
      let loop = { breaks = []; continues = [] } in
      ctx.loops <- loop :: ctx.loops;
      compile_block ctx body;
      ctx.loops <- List.tl ctx.loops;
      let step_target = em.len in
      compile_block ctx step;
      emit em (Opcode.Jmp top);
      if ctx.bounds then
        Result.iter_error
          (fun msg -> invalid_arg ("Compile: unbounded loop: " ^ msg))
          (Graft_analysis.Loopbound.derive ~prev cond body step);
      let exit_target = em.len in
      em.code.(jexit) <- Opcode.Jz exit_target;
      List.iter (fun i -> em.code.(i) <- Opcode.Jmp exit_target) loop.breaks;
      List.iter
        (fun i -> em.code.(i) <- Opcode.Jmp step_target)
        loop.continues
  | Ir.Return (Some e) ->
      compile_expr ctx e;
      emit em Opcode.Ret
  | Ir.Return None ->
      emit em (Opcode.Const 0);
      emit em Opcode.Ret
  | Ir.Break -> begin
      match ctx.loops with
      | loop :: _ -> loop.breaks <- emit_patch em :: loop.breaks
      | [] -> assert false (* typechecker rejects break outside loops *)
    end
  | Ir.Continue -> begin
      match ctx.loops with
      | loop :: _ -> loop.continues <- emit_patch em :: loop.continues
      | [] -> assert false
    end
  | Ir.Eval e ->
      compile_expr ctx e;
      emit em Opcode.Pop

(* Compile a statement list, tracking the lexically-previous statement
   for the loop-bound derivation's initialiser. *)
and compile_block ctx stmts =
  let prev = ref None in
  List.iter
    (fun s ->
      ctx.prev <- !prev;
      compile_stmt ctx s;
      prev := Some s)
    stmts

(** Compile a linked image to an executable, fully checked stack-VM
    program, with each [Ir.At] statement's first pc. *)
let compile_starts ?(bounds = false) (image : Link.image) =
  let prog = image.Link.prog in
  let em = { code = Array.make 256 Opcode.Halt; len = 0 } in
  let ctx = { em; image; loops = []; bounds; prev = None; starts_rev = [] } in
  let funcs =
    Array.map
      (fun (f : Ir.func) ->
        let entry = em.len in
        compile_block ctx f.Ir.body;
        (* Fall-off-the-end safety net: void functions return 0; the
           typechecker guarantees value functions never reach it. *)
        emit em (Opcode.Const 0);
        emit em Opcode.Ret;
        {
          Program.name = f.Ir.fname;
          nargs = List.length f.Ir.fparams;
          nlocals = max 1 f.Ir.nlocals;
          entry;
          code_end = em.len;
        })
      prog.Ir.funcs
  in
  let arrays =
    Array.init
      (Array.length prog.Ir.arrays)
      (fun i ->
        {
          Program.base = image.Link.arr_base.(i);
          len = image.Link.arr_len.(i);
          writable = image.Link.arr_writable.(i);
        })
  in
  ( {
    Program.code = Array.sub em.code 0 em.len;
    funcs;
    arrays;
    host = image.Link.host;
    ext_arity =
      Array.map (fun (e : Ir.ext) -> List.length e.Ir.eparams) prog.Ir.externs;
    ext_names = Array.map (fun (e : Ir.ext) -> e.Ir.ename) prog.Ir.externs;
    cells = Graft_mem.Memory.cells image.Link.mem;
  },
    Array.of_list (List.rev ctx.starts_rev) )

let compile ?bounds image = fst (compile_starts ?bounds image)
let compile_located image = compile_starts image
