(** Compiler from GEL IR to register-VM code.

    Locals live in registers [reg_base ..]; expression temporaries are
    stack-allocated above the locals. Array bases are baked in as load/
    store immediates, and no bounds checks are emitted: in the SFI
    model, memory safety comes from the [Sfi] rewriting pass, not from
    checks — exactly the trade the paper describes (and why the
    Omniware beta lacked read protection). *)

open Graft_gel

exception Compile_error of string

type emitter = { mutable code : Isa.instr array; mutable len : int }

let emit em op =
  if em.len = Array.length em.code then begin
    let bigger = Array.make (max 64 (2 * em.len)) Isa.Halt in
    Array.blit em.code 0 bigger 0 em.len;
    em.code <- bigger
  end;
  em.code.(em.len) <- op;
  em.len <- em.len + 1

let emit_patch em =
  emit em Isa.Halt;
  em.len - 1

type loop_ctx = { mutable breaks : int list; mutable continues : int list }

type ctx = {
  em : emitter;
  image : Link.image;
  mutable loops : loop_ctx list;
  mutable temp : int;  (** next free temporary register *)
}

let alloc ctx =
  let r = ctx.temp in
  if r >= Isa.nregs then
    raise (Compile_error "expression too deep: out of registers");
  ctx.temp <- r + 1;
  r

(* Evaluate [e] and return the register holding the value. The result
   register is either a local (unmodified) or a temporary at or above
   the caller's mark. *)
let rec expr ctx (e : Ir.expr) : int =
  match e with
  | Ir.Const n ->
      let rd = alloc ctx in
      emit ctx.em (Isa.Movi (rd, n));
      rd
  | Ir.Local slot -> Isa.reg_base + slot
  | Ir.Global slot ->
      let rd = alloc ctx in
      emit ctx.em (Isa.Ld (rd, Isa.reg_zero, ctx.image.Link.global_base + slot));
      rd
  | Ir.Load (arr, idx) ->
      let mark = ctx.temp in
      let ri = expr ctx idx in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Ld (rd, ri, ctx.image.Link.arr_base.(arr)));
      rd
  | Ir.Arith (kind, op, a, b) ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      let rb = expr ctx b in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Bin (kind, op, rd, ra, rb));
      rd
  | Ir.Cmp (c, a, b) ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      let rb = expr ctx b in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Cmp (c, rd, ra, rb));
      rd
  | Ir.Not a ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Un (Isa.Unot, rd, ra));
      rd
  | Ir.Bnot (k, a) ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Un (Isa.Ubnot k, rd, ra));
      rd
  | Ir.Neg (k, a) ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Un (Isa.Uneg k, rd, ra));
      rd
  | Ir.ToWord a ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Un (Isa.Umask, rd, ra));
      rd
  | Ir.ToBool a ->
      let mark = ctx.temp in
      let ra = expr ctx a in
      ctx.temp <- mark;
      let rd = alloc ctx in
      emit ctx.em (Isa.Un (Isa.Utobool, rd, ra));
      rd
  | Ir.And (a, b) ->
      let mark = ctx.temp in
      let rd = alloc ctx in
      let ra = expr ctx a in
      let jz = emit_patch ctx.em in
      let rb = expr ctx b in
      emit ctx.em (Isa.Un (Isa.Utobool, rd, rb));
      let jend = emit_patch ctx.em in
      ctx.em.code.(jz) <- Isa.Brz (ra, ctx.em.len);
      emit ctx.em (Isa.Movi (rd, 0));
      ctx.em.code.(jend) <- Isa.Br ctx.em.len;
      ctx.temp <- mark + 1;
      rd
  | Ir.Or (a, b) ->
      let mark = ctx.temp in
      let rd = alloc ctx in
      let ra = expr ctx a in
      let jnz = emit_patch ctx.em in
      let rb = expr ctx b in
      emit ctx.em (Isa.Un (Isa.Utobool, rd, rb));
      let jend = emit_patch ctx.em in
      ctx.em.code.(jnz) <- Isa.Brnz (ra, ctx.em.len);
      emit ctx.em (Isa.Movi (rd, 1));
      ctx.em.code.(jend) <- Isa.Br ctx.em.len;
      ctx.temp <- mark + 1;
      rd
  | Ir.Call (fidx, args) -> compile_call ctx args (fun dst argbase nargs ->
      Isa.Call { f = fidx; dst; argbase; nargs })
  | Ir.CallExt (eidx, args) -> compile_call ctx args (fun dst argbase nargs ->
      Isa.Callext { e = eidx; dst; argbase; nargs })

and compile_call ctx args mk =
  let n = Array.length args in
  let mark = ctx.temp in
  (* Reserve a contiguous argument block, then evaluate each argument
     with temporaries above the block and move it into place. *)
  ctx.temp <- mark + n;
  if ctx.temp > Isa.nregs then
    raise (Compile_error "call has too many arguments for the register file");
  Array.iteri
    (fun i a ->
      let save = ctx.temp in
      let r = expr ctx a in
      ctx.temp <- save;
      if r <> mark + i then emit ctx.em (Isa.Mov (mark + i, r)))
    args;
  ctx.temp <- mark;
  let rd = alloc ctx in
  emit ctx.em (mk rd mark n);
  rd

let rec stmt ctx (s : Ir.stmt) =
  let em = ctx.em in
  match s with
  | Ir.At (_, s) -> stmt ctx s
  | Ir.Set_local (slot, e) ->
      let mark = ctx.temp in
      let r = expr ctx e in
      ctx.temp <- mark;
      let dst = Isa.reg_base + slot in
      if r <> dst then emit em (Isa.Mov (dst, r))
  | Ir.Set_global (slot, e) ->
      let mark = ctx.temp in
      let r = expr ctx e in
      ctx.temp <- mark;
      emit em (Isa.St (Isa.reg_zero, r, ctx.image.Link.global_base + slot))
  | Ir.Store (arr, idx, v) ->
      let mark = ctx.temp in
      let ri = expr ctx idx in
      let rv = expr ctx v in
      ctx.temp <- mark;
      emit em (Isa.St (ri, rv, ctx.image.Link.arr_base.(arr)))
  | Ir.If (cond, t, f) ->
      let mark = ctx.temp in
      let rc = expr ctx cond in
      ctx.temp <- mark;
      let jz = emit_patch em in
      List.iter (stmt ctx) t;
      if f = [] then em.code.(jz) <- Isa.Brz (rc, em.len)
      else begin
        let jend = emit_patch em in
        em.code.(jz) <- Isa.Brz (rc, em.len);
        List.iter (stmt ctx) f;
        em.code.(jend) <- Isa.Br em.len
      end
  | Ir.While (cond, body, step) ->
      let top = em.len in
      let mark = ctx.temp in
      let rc = expr ctx cond in
      ctx.temp <- mark;
      let jexit = emit_patch em in
      let loop = { breaks = []; continues = [] } in
      ctx.loops <- loop :: ctx.loops;
      List.iter (stmt ctx) body;
      ctx.loops <- List.tl ctx.loops;
      let step_target = em.len in
      List.iter (stmt ctx) step;
      emit em (Isa.Br top);
      let exit_target = em.len in
      em.code.(jexit) <- Isa.Brz (rc, exit_target);
      List.iter (fun i -> em.code.(i) <- Isa.Br exit_target) loop.breaks;
      List.iter (fun i -> em.code.(i) <- Isa.Br step_target) loop.continues
  | Ir.Return (Some e) ->
      let mark = ctx.temp in
      let r = expr ctx e in
      ctx.temp <- mark;
      emit em (Isa.Ret r)
  | Ir.Return None -> emit em (Isa.Ret Isa.reg_zero)
  | Ir.Break -> begin
      match ctx.loops with
      | loop :: _ -> loop.breaks <- emit_patch em :: loop.breaks
      | [] -> assert false
    end
  | Ir.Continue -> begin
      match ctx.loops with
      | loop :: _ -> loop.continues <- emit_patch em :: loop.continues
      | [] -> assert false
    end
  | Ir.Eval e ->
      let mark = ctx.temp in
      ignore (expr ctx e : int);
      ctx.temp <- mark

(** Compile a linked image. [segment] delimits the graft's sandbox; use
    [Sfi.segment_of_memory] when the graft owns its whole memory. The
    result is unprotected until run through [Sfi.instrument]. *)
let compile (image : Link.image) ~(segment : Program.segment) : Program.t =
  let prog = image.Link.prog in
  let em = { code = Array.make 256 Isa.Halt; len = 0 } in
  let funcs =
    Array.map
      (fun (f : Ir.func) ->
        if f.Ir.nlocals > Isa.nregs - Isa.reg_base then
          raise
            (Compile_error
               (Printf.sprintf
                  "function %s has %d locals; the register file holds %d"
                  f.Ir.fname f.Ir.nlocals (Isa.nregs - Isa.reg_base)));
        let entry = em.len in
        let ctx =
          { em; image; loops = []; temp = Isa.reg_base + f.Ir.nlocals }
        in
        List.iter (stmt ctx) f.Ir.body;
        emit em (Isa.Ret Isa.reg_zero);
        {
          Program.name = f.Ir.fname;
          nargs = List.length f.Ir.fparams;
          entry;
          code_end = em.len;
        })
      prog.Ir.funcs
  in
  {
    Program.code = Array.sub em.code 0 em.len;
    funcs;
    host = image.Link.host;
    ext_arity =
      Array.map (fun (e : Ir.ext) -> List.length e.Ir.eparams) prog.Ir.externs;
    ext_names = Array.map (fun (e : Ir.ext) -> e.Ir.ename) prog.Ir.externs;
    cells = Graft_mem.Memory.cells image.Link.mem;
    segment;
    protection = Program.Unprotected;
  }
