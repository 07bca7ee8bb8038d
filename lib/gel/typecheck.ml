(** Name resolution, type checking, and lowering of GEL ASTs to [Ir].

    GEL is strict about types (the Modula-3-like discipline the paper
    leans on): int, word, and bool never mix implicitly, with the single
    ergonomic exception that an integer literal adopts the type its
    context demands. Non-void functions must return on every path. *)

type fn_sig = { params : Ast.ty list; ret : Ast.ty option }

type genv = {
  scalars : (string, int * Ast.ty) Hashtbl.t;
  arrays : (string, int * Ir.arr) Hashtbl.t;
  funcs : (string, int * fn_sig) Hashtbl.t;
  externs : (string, int * fn_sig) Hashtbl.t;
}

type lenv = {
  genv : genv;
  mutable scopes : (string, int * Ast.ty) Hashtbl.t list;
  mutable nlocals : int;
  mutable in_loop : bool;
  fret : Ast.ty option;
}

let err = Srcloc.error

(* ------------------------------------------------------------------ *)
(* Located mode (diagnostics support).                                 *)
(*                                                                     *)
(* [check_program_located] produces the same IR as [check_program]     *)
(* except that every lowered statement is wrapped in [Ir.At] carrying  *)
(* its source position, and a side table maps local slots back to      *)
(* their names and declaration sites. The execution pipeline never     *)
(* sees located IR; only [graftkit check] compiles it.                 *)
(* ------------------------------------------------------------------ *)

type func_meta = {
  mfname : string;
  mfpos : Srcloc.pos;
  mnargs : int;
  mlocals : (string * Srcloc.pos) array;  (** indexed by local slot *)
}

type program_meta = { fmeta : func_meta array }

(* Compilation-scoped accumulators. Domain-local (not plain refs) so
   two domains can type-check programs concurrently — sharded serve
   builds each shard's tenant grafts inside its own domain. *)
let located_key = Domain.DLS.new_key (fun () -> ref false)
let located () = Domain.DLS.get located_key

let locals_acc_key :
    (int * string * Srcloc.pos) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let locals_acc () = Domain.DLS.get locals_acc_key

let kind_of = function
  | Ast.Tint -> Ir.Kint
  | Ast.Tword -> Ir.Kword
  | Ast.Tbool -> Ir.Kint

let is_numeric = function Ast.Tint | Ast.Tword -> true | Ast.Tbool -> false

(* ------------------------------------------------------------------ *)
(* Constant folding (global and array initializers).                  *)
(* ------------------------------------------------------------------ *)

let rec const_eval (e : Ast.expr) : int =
  match e.desc with
  | Ast.Int_lit n -> n
  | Ast.Bool_lit b -> if b then 1 else 0
  | Ast.Unary (Ast.Neg, a) -> -const_eval a
  | Ast.Unary (Ast.Bnot, a) -> lnot (const_eval a)
  | Ast.Unary (Ast.Not, a) -> if const_eval a = 0 then 1 else 0
  | Ast.Binary (op, a, b) -> begin
      let va = const_eval a and vb = const_eval b in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div ->
          if vb = 0 then err e.pos "constant division by zero" else va / vb
      | Ast.Mod ->
          if vb = 0 then err e.pos "constant modulo by zero" else va mod vb
      | Ast.Shl -> Wordops.int_shl va vb
      | Ast.Shr -> Wordops.int_shr va vb
      | Ast.Lshr -> Wordops.int_lshr va vb
      | Ast.Band -> va land vb
      | Ast.Bor -> va lor vb
      | Ast.Bxor -> va lxor vb
      | Ast.Lt -> if va < vb then 1 else 0
      | Ast.Le -> if va <= vb then 1 else 0
      | Ast.Gt -> if va > vb then 1 else 0
      | Ast.Ge -> if va >= vb then 1 else 0
      | Ast.Eq -> if va = vb then 1 else 0
      | Ast.Ne -> if va <> vb then 1 else 0
      | Ast.And -> if va <> 0 && vb <> 0 then 1 else 0
      | Ast.Or -> if va <> 0 || vb <> 0 then 1 else 0
    end
  | Ast.Cast (Ast.Tword, a) -> Wordops.of_int (const_eval a)
  | Ast.Cast (_, a) -> const_eval a
  | Ast.Var _ | Ast.Index _ | Ast.Call _ ->
      err e.pos "initializer must be a compile-time constant"

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)
(* ------------------------------------------------------------------ *)

let lookup_local env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with
        | Some v -> Some v
        | None -> go rest)
  in
  go env.scopes

let rec is_int_literal (e : Ast.expr) =
  match e.desc with
  | Ast.Int_lit _ -> true
  | Ast.Unary (Ast.Neg, a) | Ast.Unary (Ast.Bnot, a) -> is_int_literal a
  | _ -> false

let word_range_check pos n =
  if n < 0 || n > Wordops.mask then
    err pos "literal %d out of range for type word" n

(* [check env hint e] infers [e]'s type; [hint] only influences bare
   integer literals, which adopt [Some Tword] to become word constants. *)
let rec check env (hint : Ast.ty option) (e : Ast.expr) : Ir.expr * Ast.ty =
  match e.desc with
  | Ast.Int_lit n -> begin
      match hint with
      | Some Ast.Tword ->
          word_range_check e.pos n;
          (Ir.Const n, Ast.Tword)
      | _ -> (Ir.Const n, Ast.Tint)
    end
  | Ast.Bool_lit b -> (Ir.Const (if b then 1 else 0), Ast.Tbool)
  | Ast.Var name -> begin
      match lookup_local env name with
      | Some (slot, ty) -> (Ir.Local slot, ty)
      | None -> (
          match Hashtbl.find_opt env.genv.scalars name with
          | Some (slot, ty) -> (Ir.Global slot, ty)
          | None -> (
              match Hashtbl.find_opt env.genv.arrays name with
              | Some _ -> err e.pos "array %s used without a subscript" name
              | None -> err e.pos "unbound variable %s" name))
    end
  | Ast.Index (name, idx) -> begin
      match Hashtbl.find_opt env.genv.arrays name with
      | None -> err e.pos "unbound array %s" name
      | Some (aidx, arr) ->
          let idx', tidx = check env (Some Ast.Tint) idx in
          if tidx <> Ast.Tint then
            err e.pos "array subscript must be int, found %s"
              (Ast.ty_to_string tidx);
          (Ir.Load (aidx, idx'), arr.Ir.aelem)
    end
  | Ast.Unary (Ast.Neg, a) ->
      let a', ta = check env hint a in
      if not (is_numeric ta) then err e.pos "unary - needs int or word";
      (Ir.Neg (kind_of ta, a'), ta)
  | Ast.Unary (Ast.Bnot, a) ->
      let a', ta = check env hint a in
      if not (is_numeric ta) then err e.pos "unary ~ needs int or word";
      (Ir.Bnot (kind_of ta, a'), ta)
  | Ast.Unary (Ast.Not, a) ->
      let a', ta = check env (Some Ast.Tbool) a in
      if ta <> Ast.Tbool then err e.pos "unary ! needs bool";
      (Ir.Not a', Ast.Tbool)
  | Ast.Binary (op, a, b) -> check_binary env hint e.pos op a b
  | Ast.Call (name, args) -> begin
      match Hashtbl.find_opt env.genv.funcs name with
      | Some (fidx, fsig) ->
          let args' = check_args env e.pos name fsig args in
          let ret =
            match fsig.ret with
            | Some t -> t
            | None -> err e.pos "void function %s used in an expression" name
          in
          (Ir.Call (fidx, args'), ret)
      | None -> (
          match Hashtbl.find_opt env.genv.externs name with
          | Some (eidx, fsig) ->
              let args' = check_args env e.pos name fsig args in
              let ret =
                match fsig.ret with
                | Some t -> t
                | None ->
                    err e.pos "void extern %s used in an expression" name
              in
              (Ir.CallExt (eidx, args'), ret)
          | None -> err e.pos "unbound function %s" name)
    end
  | Ast.Cast (target, a) -> begin
      let a', ta = check env (Some target) a in
      match (ta, target) with
      | t, t' when t = t' -> (a', t)
      | Ast.Tint, Ast.Tword -> (Ir.ToWord a', Ast.Tword)
      | Ast.Tword, Ast.Tint -> (a', Ast.Tint) (* words are non-negative ints *)
      | Ast.Tbool, (Ast.Tint | Ast.Tword) -> (a', target)
      | (Ast.Tint | Ast.Tword), Ast.Tbool -> (Ir.ToBool a', Ast.Tbool)
      | _, _ ->
          err e.pos "cannot cast %s to %s" (Ast.ty_to_string ta)
            (Ast.ty_to_string target)
    end

and check_args env pos name fsig args =
  let nparams = List.length fsig.params in
  if List.length args <> nparams then
    err pos "%s expects %d arguments, given %d" name nparams
      (List.length args);
  let checked =
    List.map2
      (fun pty arg ->
        let a', ta = check env (Some pty) arg in
        if ta <> pty then
          err arg.Ast.pos "argument of %s: expected %s, found %s" name
            (Ast.ty_to_string pty) (Ast.ty_to_string ta);
        a')
      fsig.params args
  in
  Array.of_list checked

(* Unify the two operand types of a binary operator, re-checking a bare
   literal operand under the other side's type when needed. *)
and unify_operands env pos a b hint =
  let a', ta = check env hint a in
  let b', tb = check env (Some ta) b in
  if ta = tb then (a', b', ta)
  else if is_int_literal a && is_numeric tb then begin
    let a'', ta' = check env (Some tb) a in
    if ta' <> tb then
      err pos "operand type mismatch: %s vs %s" (Ast.ty_to_string ta')
        (Ast.ty_to_string tb);
    (a'', b', tb)
  end
  else
    err pos "operand type mismatch: %s vs %s" (Ast.ty_to_string ta)
      (Ast.ty_to_string tb)

and check_binary env hint pos op a b =
  let arith ir_op =
    let a', b', t = unify_operands env pos a b hint in
    if not (is_numeric t) then
      err pos "operator %s needs int or word operands" (Ast.binop_to_string op);
    (Ir.Arith (kind_of t, ir_op, a', b'), t)
  in
  let shift ir_op =
    let a', ta = check env hint a in
    if not (is_numeric ta) then
      err pos "operator %s needs an int or word left operand"
        (Ast.binop_to_string op);
    let b', tb = check env (Some Ast.Tint) b in
    if tb <> Ast.Tint then err pos "shift amount must be int";
    (Ir.Arith (kind_of ta, ir_op, a', b'), ta)
  in
  let compare ir_cmp =
    let a', b', t = unify_operands env pos a b None in
    (match (op, t) with
    | (Ast.Eq | Ast.Ne), Ast.Tbool -> ()
    | _, t when is_numeric t -> ()
    | _ ->
        err pos "operator %s cannot compare %s values" (Ast.binop_to_string op)
          (Ast.ty_to_string t));
    (Ir.Cmp (ir_cmp, a', b'), Ast.Tbool)
  in
  match op with
  | Ast.Add -> arith Ir.Add
  | Ast.Sub -> arith Ir.Sub
  | Ast.Mul -> arith Ir.Mul
  | Ast.Div -> arith Ir.Div
  | Ast.Mod -> arith Ir.Mod
  | Ast.Band -> arith Ir.Band
  | Ast.Bor -> arith Ir.Bor
  | Ast.Bxor -> arith Ir.Bxor
  | Ast.Shl -> shift Ir.Shl
  | Ast.Shr -> shift Ir.Shr
  | Ast.Lshr -> shift Ir.Lshr
  | Ast.Lt -> compare Ir.Lt
  | Ast.Le -> compare Ir.Le
  | Ast.Gt -> compare Ir.Gt
  | Ast.Ge -> compare Ir.Ge
  | Ast.Eq -> compare Ir.Eq
  | Ast.Ne -> compare Ir.Ne
  | Ast.And | Ast.Or ->
      let a', ta = check env (Some Ast.Tbool) a in
      let b', tb = check env (Some Ast.Tbool) b in
      if ta <> Ast.Tbool || tb <> Ast.Tbool then
        err pos "operator %s needs bool operands" (Ast.binop_to_string op);
      if op = Ast.And then (Ir.And (a', b'), Ast.Tbool)
      else (Ir.Or (a', b'), Ast.Tbool)

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)
(* ------------------------------------------------------------------ *)

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

let declare_local env pos name ty =
  (match env.scopes with
  | scope :: _ ->
      if Hashtbl.mem scope name then
        err pos "variable %s already declared in this scope" name
  | [] -> assert false);
  let slot = env.nlocals in
  env.nlocals <- env.nlocals + 1;
  (match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name (slot, ty)
  | [] -> assert false);
  let acc = locals_acc () in
  acc := (slot, name, pos) :: !acc;
  slot

let rec check_stmt env (s : Ast.stmt) : Ir.stmt list =
  let out = check_stmt_desc env s in
  if !(located ()) then
    (* [For] lowering concatenates already-wrapped init statements; do
       not re-wrap those. *)
    List.map (function Ir.At _ as st -> st | st -> Ir.At (s.spos, st)) out
  else out

and check_stmt_desc env (s : Ast.stmt) : Ir.stmt list =
  match s.sdesc with
  | Ast.Decl (name, declared, e) ->
      let e', te = check env declared e in
      (match declared with
      | Some t when t <> te ->
          err s.spos "variable %s declared %s but initialized with %s" name
            (Ast.ty_to_string t) (Ast.ty_to_string te)
      | _ -> ());
      let slot = declare_local env s.spos name te in
      [ Ir.Set_local (slot, e') ]
  | Ast.Assign (name, e) -> begin
      match lookup_local env name with
      | Some (slot, ty) ->
          let e', te = check env (Some ty) e in
          if te <> ty then
            err s.spos "cannot assign %s to %s variable %s"
              (Ast.ty_to_string te) (Ast.ty_to_string ty) name;
          [ Ir.Set_local (slot, e') ]
      | None -> (
          match Hashtbl.find_opt env.genv.scalars name with
          | Some (slot, ty) ->
              let e', te = check env (Some ty) e in
              if te <> ty then
                err s.spos "cannot assign %s to %s global %s"
                  (Ast.ty_to_string te) (Ast.ty_to_string ty) name;
              [ Ir.Set_global (slot, e') ]
          | None -> err s.spos "unbound variable %s" name)
    end
  | Ast.Store (name, idx, e) -> begin
      match Hashtbl.find_opt env.genv.arrays name with
      | None -> err s.spos "unbound array %s" name
      | Some (aidx, arr) ->
          let idx', tidx = check env (Some Ast.Tint) idx in
          if tidx <> Ast.Tint then err s.spos "array subscript must be int";
          let e', te = check env (Some arr.Ir.aelem) e in
          if te <> arr.Ir.aelem then
            err s.spos "cannot store %s into %s array %s" (Ast.ty_to_string te)
              (Ast.ty_to_string arr.Ir.aelem) name;
          [ Ir.Store (aidx, idx', e') ]
    end
  | Ast.If (cond, then_blk, else_blk) ->
      let cond', tc = check env (Some Ast.Tbool) cond in
      if tc <> Ast.Tbool then err s.spos "if condition must be bool";
      let then' = check_block env then_blk in
      let else' = check_block env else_blk in
      [ Ir.If (cond', then', else') ]
  | Ast.While (cond, body) ->
      let cond', tc = check env (Some Ast.Tbool) cond in
      if tc <> Ast.Tbool then err s.spos "while condition must be bool";
      let saved = env.in_loop in
      env.in_loop <- true;
      let body' = check_block env body in
      env.in_loop <- saved;
      [ Ir.While (cond', body', []) ]
  | Ast.For (init, cond, step, body) ->
      push_scope env;
      let init' = match init with None -> [] | Some st -> check_stmt env st in
      let cond' =
        match cond with
        | None -> Ir.Const 1
        | Some c ->
            let c', tc = check env (Some Ast.Tbool) c in
            if tc <> Ast.Tbool then err s.spos "for condition must be bool";
            c'
      in
      let saved = env.in_loop in
      env.in_loop <- true;
      let body' = check_block env body in
      env.in_loop <- saved;
      (* The step runs outside the loop-body flag: continue inside the
         step itself makes no sense and is rejected. *)
      let step' = match step with None -> [] | Some st -> check_stmt env st in
      pop_scope env;
      init' @ [ Ir.While (cond', body', step') ]
  | Ast.Return None ->
      if env.fret <> None then
        err s.spos "non-void function must return a value";
      [ Ir.Return None ]
  | Ast.Return (Some e) -> begin
      match env.fret with
      | None -> err s.spos "void function cannot return a value"
      | Some rt ->
          let e', te = check env (Some rt) e in
          if te <> rt then
            err s.spos "return type mismatch: expected %s, found %s"
              (Ast.ty_to_string rt) (Ast.ty_to_string te);
          [ Ir.Return (Some e') ]
    end
  | Ast.Break ->
      if not env.in_loop then err s.spos "break outside a loop";
      [ Ir.Break ]
  | Ast.Continue ->
      if not env.in_loop then err s.spos "continue outside a loop";
      [ Ir.Continue ]
  | Ast.Expr_stmt e ->
      (* Void calls are the common case; non-void results are discarded
         as in C. *)
      let e' =
        match e.desc with
        | Ast.Call (name, args)
          when (not (Hashtbl.mem env.genv.funcs name))
               && Hashtbl.mem env.genv.externs name
               && (snd (Hashtbl.find env.genv.externs name)).ret = None ->
            let eidx, fsig = Hashtbl.find env.genv.externs name in
            Ir.CallExt (eidx, check_args env e.pos name fsig args)
        | Ast.Call (name, args) when Hashtbl.mem env.genv.funcs name -> begin
            let fidx, fsig = Hashtbl.find env.genv.funcs name in
            match fsig.ret with
            | None -> Ir.Call (fidx, check_args env e.pos name fsig args)
            | Some _ -> fst (check env None e)
          end
        | _ -> fst (check env None e)
      in
      [ Ir.Eval e' ]

and check_block env stmts =
  push_scope env;
  let out = List.concat_map (check_stmt env) stmts in
  pop_scope env;
  out

(* ------------------------------------------------------------------ *)
(* Return-path analysis.                                               *)
(* ------------------------------------------------------------------ *)

let rec always_returns (s : Ir.stmt) =
  match s with
  | Ir.Return _ -> true
  | Ir.If (_, t, f) -> block_returns t && block_returns f
  | Ir.At (_, s) -> always_returns s
  | _ -> false

and block_returns stmts = List.exists always_returns stmts

(* ------------------------------------------------------------------ *)
(* Programs.                                                           *)
(* ------------------------------------------------------------------ *)

let check_program_meta (prog : Ast.program) : Ir.program * program_meta =
  let genv =
    {
      scalars = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      externs = Hashtbl.create 16;
    }
  in
  let all_names = Hashtbl.create 32 in
  let claim pos name =
    if Hashtbl.mem all_names name then
      err pos "duplicate top-level name %s" name;
    Hashtbl.replace all_names name ()
  in
  let globals = ref [] and arrays = ref [] and externs = ref [] in
  (* First pass: declare every top-level name so functions can call
     forward. *)
  List.iter
    (fun g ->
      match g with
      | Ast.Gvar { name; gty; init; gpos } ->
          claim gpos name;
          let ginit =
            match init with
            | None -> 0
            | Some e ->
                let v = const_eval e in
                if gty = Ast.Tword then begin
                  word_range_check e.Ast.pos v;
                  Wordops.of_int v
                end
                else if gty = Ast.Tbool then (if v <> 0 then 1 else 0)
                else v
          in
          let slot = List.length !globals in
          Hashtbl.replace genv.scalars name (slot, gty);
          globals := { Ir.gname = name; gty; ginit } :: !globals
      | Ast.Garray { name; size; elem; shared; init; gpos } ->
          claim gpos name;
          if elem = Ast.Tbool then err gpos "bool arrays are not supported";
          let ainit =
            match init with
            | None -> None
            | Some elems ->
                let vals =
                  List.map
                    (fun e ->
                      let v = const_eval e in
                      if elem = Ast.Tword then begin
                        word_range_check e.Ast.pos v;
                        Wordops.of_int v
                      end
                      else v)
                    elems
                in
                let a = Array.make size 0 in
                List.iteri (fun i v -> a.(i) <- v) vals;
                Some a
          in
          let arr =
            { Ir.aname = name; asize = size; aelem = elem; ashared = shared;
              ainit }
          in
          let idx = List.length !arrays in
          Hashtbl.replace genv.arrays name (idx, arr);
          arrays := arr :: !arrays
      | Ast.Gextern { name; params; ret; gpos } ->
          claim gpos name;
          let idx = List.length !externs in
          Hashtbl.replace genv.externs name (idx, { params; ret });
          externs := { Ir.ename = name; eparams = params; eret = ret } :: !externs
      | Ast.Gfn { name; params; ret; gpos; _ } ->
          claim gpos name;
          let fsig = { params = List.map (fun p -> p.Ast.pty) params; ret } in
          let idx = Hashtbl.length genv.funcs in
          Hashtbl.replace genv.funcs name (idx, fsig))
    prog;
  (* Second pass: check function bodies in declaration order. *)
  let funcs = ref [] and metas = ref [] in
  List.iter
    (fun g ->
      match g with
      | Ast.Gfn { name; params; ret; body; gpos } ->
          let env =
            { genv; scopes = []; nlocals = 0; in_loop = false; fret = ret }
          in
          (locals_acc ()) := [];
          push_scope env;
          List.iter
            (fun p -> ignore (declare_local env gpos p.Ast.pname p.Ast.pty))
            params;
          let body' = check_block env body in
          pop_scope env;
          if ret <> None && not (block_returns body') then
            err gpos "function %s does not return on every path" name;
          let mlocals = Array.make env.nlocals ("", Srcloc.pos0) in
          List.iter
            (fun (slot, lname, lpos) -> mlocals.(slot) <- (lname, lpos))
            !(locals_acc ());
          metas :=
            {
              mfname = name;
              mfpos = gpos;
              mnargs = List.length params;
              mlocals;
            }
            :: !metas;
          funcs :=
            {
              Ir.fname = name;
              fparams = List.map (fun p -> p.Ast.pty) params;
              fret = ret;
              nlocals = env.nlocals;
              body = body';
            }
            :: !funcs
      | Ast.Gvar _ | Ast.Garray _ | Ast.Gextern _ -> ())
    prog;
  ( {
      Ir.globals = Array.of_list (List.rev !globals);
      arrays = Array.of_list (List.rev !arrays);
      funcs = Array.of_list (List.rev !funcs);
      externs = Array.of_list (List.rev !externs);
    },
    { fmeta = Array.of_list (List.rev !metas) } )

let check_program (prog : Ast.program) : Ir.program =
  fst (check_program_meta prog)

let check_program_located (prog : Ast.program) : Ir.program * program_meta =
  (located ()) := true;
  Fun.protect
    ~finally:(fun () -> (located ()) := false)
    (fun () -> check_program_meta prog)
