(** Flow-sensitive abstract interpretation over GEL IR: the engine
    behind [graftkit check].

    {!check} runs over located IR ([Typecheck.check_program_located])
    and reports provable out-of-bounds accesses, guaranteed division by
    zero, unreachable code, and unused locals/functions as
    source-anchored diagnostics. It decides no check elision: the
    static tier's elisions come from the stack verifier's own interval
    analysis over the compiled bytecode ([Graft_stackvm.Verify.elide]),
    so nothing here is trusted by a loader.

    The domain is {!Interval}; loops run to a fixpoint with widening at
    the loop head, and comparison guards refine the interval of a local
    on both branch edges. Globals and array contents are untracked
    (always top), as in the bytecode verifier. *)

open Graft_gel
module I = Interval

type diag = { dpos : Srcloc.pos; dkind : string; dmsg : string }

(* ------------------------------------------------------------------ *)
(* Abstract state: one interval per local slot; [None] = unreachable.  *)
(* ------------------------------------------------------------------ *)

type state = I.t array option

let copy = Option.map Array.copy

let state_join a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some x, Some y -> Some (Array.map2 I.join x y)

let state_widen old next =
  match (old, next) with
  | None, s | s, None -> s
  | Some x, Some y -> Some (Array.map2 I.widen x y)

let state_leq a b =
  match (a, b) with
  | None, _ -> true
  | _, None -> false
  | Some x, Some y ->
      let ok = ref true in
      Array.iteri (fun i v -> if not (I.leq v y.(i)) then ok := false) x;
      !ok

type loop_frame = { mutable brk : state; mutable cont : state }

type ctx = {
  prog : Ir.program;
  lens : int array;  (** index bound per array *)
  mutable recording : bool;
      (** diagnostics are emitted only in the recording pass; loop
          fixpoint iterations run silent *)
  mutable loops : loop_frame list;
  mutable pos : Srcloc.pos;  (** nearest enclosing [Ir.At] *)
  mutable diags_rev : diag list;
  mutable report_dead : bool;
}

let emit_diag ctx kind fmt =
  Printf.ksprintf
    (fun msg ->
      if ctx.recording then
        ctx.diags_rev <- { dpos = ctx.pos; dkind = kind; dmsg = msg } :: ctx.diags_rev)
    fmt

(* ------------------------------------------------------------------ *)
(* Guard refinement.                                                   *)
(* ------------------------------------------------------------------ *)

(* Assume [e] evaluates to [truth] and narrow the state accordingly.
   Only [Local]-vs-[Local]/[Const] comparison shapes (and their [!]
   compositions) refine — the shapes the bytecode verifier recognizes
   from operand provenance. Returns [None] when the guard cannot
   evaluate to [truth]. *)
let rec refine ctx (st : state) (e : Ir.expr) (truth : bool) : state =
  match st with
  | None -> None
  | Some locals -> (
      match e with
      | Ir.Cmp (c, a, b) -> (
          let c = if truth then c else I.negate_cmp c in
          let side = function
            | Ir.Const n -> I.const n
            | Ir.Local n -> locals.(n)
            | _ -> I.top
          in
          let ia', ib' = I.refine_cmp c (side a) (side b) in
          if I.is_bot ia' || I.is_bot ib' then None
          else begin
            (match a with Ir.Local n -> locals.(n) <- ia' | _ -> ());
            (match b with Ir.Local n -> locals.(n) <- ib' | _ -> ());
            st
          end)
      | Ir.Local n ->
          (* A bare local used as a condition: nonzero on the true
             edge, zero on the false edge. *)
          let c = if truth then Ir.Ne else Ir.Eq in
          let iv', _ = I.refine_cmp c locals.(n) (I.const 0) in
          if I.is_bot iv' then None
          else begin
            locals.(n) <- iv';
            st
          end
      | Ir.Const n -> if (n <> 0) = truth then st else None
      | Ir.Not e -> refine ctx st e (not truth)
      | Ir.And _ | Ir.Or _ ->
          (* No refinement through short-circuit operators, as in the
             bytecode verifier, whose compiled [&&]/[||] joins the
             short-circuit path back in before the branch. Nothing
             here feeds an elision, but the rule decides which accesses
             [graftkit check] proves out of bounds and which code it
             reports unreachable, so refining here would change its
             diagnostics. The right-hand side is still evaluated under
             the left-hand refinement (see [eval]). *)
          st
      | _ -> st)

(* After a checked access [a[l]] succeeds, local [l] is known to be a
   valid index, the same narrowing the stack-VM verifier applies from
   operand provenance. *)
let post_refine ctx (st : state) (idx : Ir.expr) arr =
  match (st, idx) with
  | Some locals, Ir.Local n ->
      locals.(n) <- I.meet locals.(n) (I.range 0 (ctx.lens.(arr) - 1))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Expression evaluation (diagnoses access and division sites).        *)
(* ------------------------------------------------------------------ *)

let dead st = st = None

let rec eval ctx (st : state) (e : Ir.expr) : I.t =
  match e with
  | Ir.Const n -> I.const n
  | Ir.Local n -> ( match st with Some l -> l.(n) | None -> I.bot)
  | Ir.Global _ -> if dead st then I.bot else I.top
  | Ir.Load (arr, idx) ->
      let iv = eval ctx st idx in
      access_site ctx st arr iv;
      post_refine ctx st idx arr;
      if dead st then I.bot else I.top
  | Ir.Arith (kind, op, a, b) ->
      let ia = eval ctx st a in
      let ib = eval ctx st b in
      (match op with
      | (Ir.Div | Ir.Mod) when (not (dead st)) && I.equal ib (I.const 0) ->
          emit_diag ctx "divzero" "division by zero: the divisor is always 0"
      | _ -> ());
      I.arith kind op ia ib
  | Ir.Cmp (_, a, b) ->
      ignore (eval ctx st a);
      ignore (eval ctx st b);
      if dead st then I.bot else I.bool_result
  | Ir.Not a ->
      ignore (eval ctx st a);
      if dead st then I.bot else I.bool_result
  | Ir.Bnot (k, a) -> I.bnot k (eval ctx st a)
  | Ir.Neg (k, a) -> I.neg_k k (eval ctx st a)
  | Ir.And (a, b) ->
      ignore (eval ctx st a);
      (* [b] only runs when [a] held; evaluate it under that refinement
         (matching the bytecode's fall-through edge) and discard the
         narrowing, since execution may skip [b] entirely. *)
      let stb = refine ctx (copy st) a true in
      ignore (eval ctx stb b);
      if dead st then I.bot else I.bool_result
  | Ir.Or (a, b) ->
      ignore (eval ctx st a);
      let stb = refine ctx (copy st) a false in
      ignore (eval ctx stb b);
      if dead st then I.bot else I.bool_result
  | Ir.Call (_, args) | Ir.CallExt (_, args) ->
      Array.iter (fun a -> ignore (eval ctx st a)) args;
      if dead st then I.bot else I.top
  | Ir.ToWord a -> I.to_word (eval ctx st a)
  | Ir.ToBool a ->
      ignore (eval ctx st a);
      if dead st then I.bot else I.bool_result

and access_site ctx st arr iv =
  let len = ctx.lens.(arr) in
  let legal = I.range 0 (len - 1) in
  if (not (dead st)) && (not (I.is_bot iv)) && I.is_bot (I.meet iv legal) then
    emit_diag ctx "oob"
      "index of array '%s' is provably out of bounds: %s is outside [0,%d]"
      ctx.prog.Ir.arrays.(arr).Ir.aname (I.to_string iv) (len - 1)

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)
(* ------------------------------------------------------------------ *)

let pos_of_stmt ctx = function Ir.At (p, _) -> p | _ -> ctx.pos

let rec exec ctx (st : state) (s : Ir.stmt) : state =
  match s with
  | Ir.At (pos, s) ->
      ctx.pos <- pos;
      exec ctx st s
  | Ir.Set_local (n, e) ->
      let iv = eval ctx st e in
      (match st with Some l -> l.(n) <- iv | None -> ());
      st
  | Ir.Set_global (_, e) ->
      ignore (eval ctx st e);
      st
  | Ir.Store (arr, idx, v) ->
      let ii = eval ctx st idx in
      ignore (eval ctx st v);
      access_site ctx st arr ii;
      post_refine ctx st idx arr;
      st
  | Ir.If (cond, t, f) ->
      ignore (eval ctx st cond);
      let st_t = refine ctx (copy st) cond true in
      let st_f = refine ctx (copy st) cond false in
      let out_t = exec_block ctx st_t t in
      let out_f = exec_block ctx st_f f in
      state_join out_t out_f
  | Ir.While (cond, body, step) -> exec_while ctx st cond body step
  | Ir.Return e ->
      (match e with Some e -> ignore (eval ctx st e) | None -> ());
      None
  | Ir.Break ->
      (match ctx.loops with
      | fr :: _ -> fr.brk <- state_join fr.brk (copy st)
      | [] -> ());
      None
  | Ir.Continue ->
      (match ctx.loops with
      | fr :: _ -> fr.cont <- state_join fr.cont (copy st)
      | [] -> ());
      None
  | Ir.Eval e ->
      ignore (eval ctx st e);
      st

and exec_block ctx st stmts =
  let st = ref st in
  List.iter
    (fun s ->
      (if !st <> None then ctx.report_dead <- true
       else if ctx.report_dead then begin
         ctx.report_dead <- false;
         if ctx.recording then begin
           let p = pos_of_stmt ctx s in
           let saved = ctx.pos in
           ctx.pos <- p;
           emit_diag ctx "unreachable" "unreachable code";
           ctx.pos <- saved
         end
       end);
      st := exec ctx !st s)
    stmts;
  !st

and exec_while ctx st cond body step =
  let saved_rec = ctx.recording in
  (* One loop iteration from [head]: condition, body (collecting
     break/continue edges), then step. Returns the state flowing back
     to the head and the loop's exit state. *)
  let run_once recording head =
    ctx.recording <- recording;
    let frame = { brk = None; cont = None } in
    ctx.loops <- frame :: ctx.loops;
    let stc = copy head in
    ignore (eval ctx stc cond);
    let st_t = refine ctx (copy stc) cond true in
    let st_f = refine ctx (copy stc) cond false in
    let body_out = exec_block ctx st_t body in
    ctx.loops <- List.tl ctx.loops;
    let step_in = state_join body_out frame.cont in
    let step_out = exec_block ctx step_in step in
    (step_out, state_join st_f frame.brk)
  in
  (* Fixpoint over the loop head, silent; widening from the second
     iteration bounds the ascent. *)
  let head = ref (copy st) in
  let stable = ref false in
  let iter = ref 0 in
  while not !stable do
    incr iter;
    let back, _ = run_once false !head in
    let new_head = state_join (copy st) back in
    if state_leq new_head !head then stable := true
    else
      head := if !iter >= 2 then state_widen !head new_head else new_head
  done;
  (* Recording pass from the stable head: every syntactic site in
     condition, body and step is emitted exactly once. *)
  let _, exit_st = run_once saved_rec !head in
  ctx.recording <- saved_rec;
  exit_st

(* ------------------------------------------------------------------ *)
(* Diagnostics front-end.                                              *)
(* ------------------------------------------------------------------ *)

let make_ctx prog ~lens =
  {
    prog;
    lens;
    recording = true;
    loops = [];
    pos = Srcloc.pos0;
    diags_rev = [];
    report_dead = true;
  }

let analyze_func ctx (f : Ir.func) =
  ctx.report_dead <- true;
  let locals = Array.make (max 1 f.Ir.nlocals) I.top in
  ignore (exec_block ctx (Some locals) f.Ir.body)

let rec expr_reads acc (e : Ir.expr) =
  match e with
  | Ir.Local n -> acc.(n) <- true
  | Ir.Const _ | Ir.Global _ -> ()
  | Ir.Load (_, i) -> expr_reads acc i
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      expr_reads acc a;
      expr_reads acc b
  | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
      expr_reads acc a
  | Ir.Call (_, args) | Ir.CallExt (_, args) -> Array.iter (expr_reads acc) args

let rec stmt_reads acc (s : Ir.stmt) =
  match s with
  | Ir.At (_, s) -> stmt_reads acc s
  | Ir.Set_local (_, e) | Ir.Set_global (_, e) | Ir.Eval e -> expr_reads acc e
  | Ir.Store (_, i, v) ->
      expr_reads acc i;
      expr_reads acc v
  | Ir.If (c, t, f) ->
      expr_reads acc c;
      List.iter (stmt_reads acc) t;
      List.iter (stmt_reads acc) f
  | Ir.While (c, b, s) ->
      expr_reads acc c;
      List.iter (stmt_reads acc) b;
      List.iter (stmt_reads acc) s
  | Ir.Return (Some e) -> expr_reads acc e
  | Ir.Return None | Ir.Break | Ir.Continue -> ()

let rec stmt_calls acc (s : Ir.stmt) =
  let rec e_calls (e : Ir.expr) =
    match e with
    | Ir.Call (f, args) ->
        acc.(f) <- true;
        Array.iter e_calls args
    | Ir.CallExt (_, args) -> Array.iter e_calls args
    | Ir.Load (_, i) -> e_calls i
    | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
        e_calls a;
        e_calls b
    | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
        e_calls a
    | Ir.Const _ | Ir.Local _ | Ir.Global _ -> ()
  in
  match s with
  | Ir.At (_, s) -> stmt_calls acc s
  | Ir.Set_local (_, e) | Ir.Set_global (_, e) | Ir.Eval e -> e_calls e
  | Ir.Store (_, i, v) ->
      e_calls i;
      e_calls v
  | Ir.If (c, t, f) ->
      e_calls c;
      List.iter (stmt_calls acc) t;
      List.iter (stmt_calls acc) f
  | Ir.While (c, b, st) ->
      e_calls c;
      List.iter (stmt_calls acc) b;
      List.iter (stmt_calls acc) st
  | Ir.Return (Some e) -> e_calls e
  | Ir.Return None | Ir.Break | Ir.Continue -> ()

(** Run the diagnostics pass over a located program
    ([Typecheck.check_program_located] output). Array bounds come from
    the declarations. [entries], when given, names the graft's
    entry points and enables the unused-function check (reachability
    over the call graph from those roots). *)
let check ?entries (prog : Ir.program) (meta : Typecheck.program_meta) :
    diag list =
  let lens = Array.map (fun (a : Ir.arr) -> a.Ir.asize) prog.Ir.arrays in
  let ctx = make_ctx prog ~lens in
  Array.iteri
    (fun i (f : Ir.func) ->
      ctx.pos <- meta.Typecheck.fmeta.(i).Typecheck.mfpos;
      analyze_func ctx f)
    prog.Ir.funcs;
  (* Unused locals (parameters excluded). *)
  Array.iteri
    (fun i (f : Ir.func) ->
      let fm = meta.Typecheck.fmeta.(i) in
      let reads = Array.make (max 1 f.Ir.nlocals) false in
      List.iter (stmt_reads reads) f.Ir.body;
      Array.iteri
        (fun slot (name, pos) ->
          if slot >= fm.Typecheck.mnargs && not reads.(slot) && name <> "" then
            ctx.diags_rev <-
              {
                dpos = pos;
                dkind = "unused-local";
                dmsg =
                  Printf.sprintf "local '%s' of function '%s' is never read"
                    name f.Ir.fname;
              }
              :: ctx.diags_rev)
        fm.Typecheck.mlocals)
    prog.Ir.funcs;
  (* Unused functions, relative to the declared entry points. *)
  (match entries with
  | None -> ()
  | Some roots ->
      let n = Array.length prog.Ir.funcs in
      let reach = Array.make n false in
      let calls = Array.make n [] in
      Array.iteri
        (fun i (f : Ir.func) ->
          let acc = Array.make n false in
          List.iter (stmt_calls acc) f.Ir.body;
          let out = ref [] in
          Array.iteri (fun j c -> if c then out := j :: !out) acc;
          calls.(i) <- !out)
        prog.Ir.funcs;
      let rec visit i =
        if not reach.(i) then begin
          reach.(i) <- true;
          List.iter visit calls.(i)
        end
      in
      List.iter
        (fun name ->
          match Ir.find_func prog name with Some i -> visit i | None -> ())
        roots;
      Array.iteri
        (fun i (f : Ir.func) ->
          if not reach.(i) then
            ctx.diags_rev <-
              {
                dpos = meta.Typecheck.fmeta.(i).Typecheck.mfpos;
                dkind = "unused-fn";
                dmsg =
                  Printf.sprintf
                    "function '%s' is unreachable from the entry points"
                    f.Ir.fname;
              }
              :: ctx.diags_rev)
        prog.Ir.funcs);
  (* Stable order: by source position, then kind. *)
  List.sort
    (fun a b ->
      compare
        (a.dpos.Srcloc.line, a.dpos.Srcloc.col, a.dkind)
        (b.dpos.Srcloc.line, b.dpos.Srcloc.col, b.dkind))
    (List.rev ctx.diags_rev)
