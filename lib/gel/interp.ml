(** Reference interpreter for GEL IR: a direct AST walk.

    This is the semantic oracle the VM backends are differentially
    tested against, and it doubles as a measured technology in its own
    right (an AST-walking interpreter sits between a bytecode VM and a
    source-level interpreter in the paper's taxonomy of interpretation
    costs). Every access is checked; fuel is decremented per evaluated
    node so runaway grafts are preempted.

    Control flow is a value, not an exception: [exec] returns whether
    the statement fell through, broke, continued or returned, and a
    [return]'s result waits in the session. No handler is installed per
    loop, iteration or call. The walk recurses directly, never through
    a partial application, and reads [Const]/[Local] operands in place.

    A {!session}, made once per resident graft, holds what the walk
    needs: the image's cells, array bases and array lengths, one frame
    slab per call depth, and an argument staging area. A call evaluates
    its arguments onto the staging area (a call nested in an argument
    stages above them); a GEL call then copies them into the slab of
    its depth, and a host call reads them where they are staged, so no
    call allocates. Slabs and the staging area grow on first use, to
    the size the graft needs. The walk makes no call into another
    module: it raises its faults itself, reads the cells from the
    session and writes the word operations out. *)

open Graft_mem

type flow = Next | Break | Continue | Return

let max_depth = 256

type session = {
  funcs : Ir.func array;
  cells : int array;
  global_base : int;
  arr_base : int array;
  arr_len : int array;
  arr_writable : bool array;
  host : (int array -> int -> int) array;
  slabs : int array array;  (** the locals of the frame at each depth *)
  mutable stage : int array;  (** call arguments, staged *)
  mutable top : int;  (** staged arguments in use *)
  mutable fuel : int;
  mutable depth : int;
  mutable ret : int;  (** the value of the last [Return] flow *)
}

let create_session (image : Link.image) =
  {
    funcs = image.Link.prog.Ir.funcs;
    cells = Memory.cells image.Link.mem;
    global_base = image.Link.global_base;
    arr_base = image.Link.arr_base;
    arr_len = image.Link.arr_len;
    arr_writable = image.Link.arr_writable;
    host = image.Link.host;
    slabs = Array.make (max_depth + 1) [||];
    stage = [||];
    top = 0;
    fuel = 0;
    depth = 0;
    ret = 0;
  }

(* Graftmeter counters, as the other engines keep theirs; counted once
   per run, outside the walk. *)
let m_sessions =
  Graft_metrics.domain_counter "graftkit_vm_sessions" [ ("tier", "ast") ]

let m_fuel = Graft_metrics.domain_counter "graftkit_vm_fuel" [ ("tier", "ast") ]

(* The walk's faults, raised inline: a [Fault.raise_fault] call would
   cross into another module, an indirect call under [-opaque]. *)
let out_of_fuel = Fault.Fault Fault.Fuel_exhausted
let div_zero = Fault.Fault Fault.Division_by_zero
let stack_overflow = Fault.Fault Fault.Stack_overflow

let[@inline] tick st =
  let fuel = st.fuel - 1 in
  st.fuel <- fuel;
  if fuel < 0 then raise out_of_fuel

let load_arr st arr idx =
  if idx < 0 || idx >= st.arr_len.(arr) then
    raise
      (Fault.Fault (Fault.Out_of_bounds { access = Fault.Read; addr = idx }));
  st.cells.(st.arr_base.(arr) + idx)

let store_arr st arr idx v =
  if idx < 0 || idx >= st.arr_len.(arr) then
    raise
      (Fault.Fault (Fault.Out_of_bounds { access = Fault.Write; addr = idx }));
  let addr = st.arr_base.(arr) + idx in
  if not st.arr_writable.(arr) then
    raise (Fault.Fault (Fault.Protection { access = Fault.Write; addr }));
  st.cells.(addr) <- v

(* [Wordops.mask], as a constant the written-out word arithmetic below
   can fold: across modules, [-opaque] builds reach [Wordops] through
   an indirect [caml_apply2] per operation. *)
let word_mask = 0xFFFFFFFF

let arith kind op a b =
  match (kind, op) with
  | Ir.Kint, Ir.Add -> a + b
  | Ir.Kint, Ir.Sub -> a - b
  | Ir.Kint, Ir.Mul -> a * b
  | (Ir.Kint | Ir.Kword), (Ir.Div | Ir.Mod) when b = 0 -> raise div_zero
  | (Ir.Kint | Ir.Kword), Ir.Div -> a / b
  | (Ir.Kint | Ir.Kword), Ir.Mod -> a mod b
  (* [Wordops]' int shifts: amounts modulo 64, 63 saturating. *)
  | Ir.Kint, Ir.Shl ->
      let n = b land 63 in
      if n > 62 then 0 else a lsl n
  | Ir.Kint, Ir.Shr ->
      let n = b land 63 in
      if n > 62 then a asr 62 else a asr n
  | Ir.Kint, Ir.Lshr ->
      let n = b land 63 in
      if n > 62 then 0 else (a land max_int) lsr n
  | (Ir.Kint | Ir.Kword), Ir.Band -> a land b
  | (Ir.Kint | Ir.Kword), Ir.Bor -> a lor b
  | (Ir.Kint | Ir.Kword), Ir.Bxor -> a lxor b
  (* Word arithmetic: [Wordops] semantics, written out. *)
  | Ir.Kword, Ir.Add -> (a + b) land word_mask
  | Ir.Kword, Ir.Sub -> (a - b) land word_mask
  | Ir.Kword, Ir.Mul -> a * b land word_mask
  | Ir.Kword, Ir.Shl -> (a lsl (b land 31)) land word_mask
  | Ir.Kword, (Ir.Shr | Ir.Lshr) -> a lsr (b land 31)

(* Typed operands: untyped, [<] would be OCaml's polymorphic compare,
   a C call per comparison. *)
let compare_vals cmp (a : int) (b : int) =
  let r =
    match cmp with
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
  in
  if r then 1 else 0

(* The staging area, grown to hold [n] arguments. *)
let grow_stage st n =
  let stage = Array.make (max 16 (2 * n)) 0 in
  Array.blit st.stage 0 stage 0 st.top;
  st.stage <- stage

(* The frame slab at [depth], grown to hold [nlocals]. It is reused:
   GEL locals are always written before read, so stale values are
   invisible. *)
let grow_slab st depth nlocals =
  let slab = Array.make (max 8 nlocals) 0 in
  st.slabs.(depth) <- slab;
  slab

let rec eval st locals (e : Ir.expr) : int =
  tick st;
  match e with
  | Ir.Const n -> n
  | Ir.Local slot -> Array.unsafe_get locals slot
  | Ir.Global slot -> st.cells.(st.global_base + slot)
  (* A [Const] or [Local] operand is read in place, charging the unit
     its own [eval] would. *)
  | Ir.Load (arr, idx) ->
      let i =
        match idx with
        | Ir.Const n -> tick st; n
        | Ir.Local slot -> tick st; Array.unsafe_get locals slot
        | _ -> eval st locals idx
      in
      load_arr st arr i
  | Ir.Arith (kind, op, a, b) ->
      let va =
        match a with
        | Ir.Const n -> tick st; n
        | Ir.Local slot -> tick st; Array.unsafe_get locals slot
        | _ -> eval st locals a
      in
      let vb =
        match b with
        | Ir.Const n -> tick st; n
        | Ir.Local slot -> tick st; Array.unsafe_get locals slot
        | _ -> eval st locals b
      in
      arith kind op va vb
  | Ir.Cmp (cmp, a, b) ->
      let va =
        match a with
        | Ir.Const n -> tick st; n
        | Ir.Local slot -> tick st; Array.unsafe_get locals slot
        | _ -> eval st locals a
      in
      let vb =
        match b with
        | Ir.Const n -> tick st; n
        | Ir.Local slot -> tick st; Array.unsafe_get locals slot
        | _ -> eval st locals b
      in
      compare_vals cmp va vb
  | Ir.Not a -> if eval st locals a = 0 then 1 else 0
  | Ir.Bnot (Ir.Kint, a) -> lnot (eval st locals a)
  | Ir.Bnot (Ir.Kword, a) -> lnot (eval st locals a) land word_mask
  | Ir.Neg (Ir.Kint, a) -> -eval st locals a
  | Ir.Neg (Ir.Kword, a) -> -eval st locals a land word_mask
  | Ir.And (a, b) -> if eval st locals a = 0 then 0 else eval st locals b
  | Ir.Or (a, b) -> if eval st locals a <> 0 then 1 else eval st locals b
  | Ir.Call (fidx, args) ->
      let f = st.funcs.(fidx) in
      let base = st.top in
      stage_args st locals args base;
      call st f base (Array.length args)
  | Ir.CallExt (eidx, args) ->
      let base = st.top in
      stage_args st locals args base;
      st.host.(eidx) st.stage base
  | Ir.ToWord a -> eval st locals a land word_mask
  | Ir.ToBool a -> if eval st locals a = 0 then 0 else 1

(* Arguments in order, left to right, onto the staging area from
   [base]; the slots stay reserved while a later argument's own call
   stages above them, and are free again on return. *)
and stage_args st locals args base =
  let n = Array.length args in
  let top = base + n in
  if Array.length st.stage < top then grow_stage st top;
  st.top <- top;
  for i = 0 to n - 1 do
    let e = Array.unsafe_get args i in
    let v =
      match e with
      | Ir.Const n -> tick st; n
      | Ir.Local slot -> tick st; Array.unsafe_get locals slot
      | _ -> eval st locals e
    in
    (* Read [st.stage] after the argument: its call may have grown it. *)
    st.stage.(base + i) <- v
  done;
  st.top <- base

(* Every statement but [At] charges one unit before its parts. The
   charge is written in each arm, so a statement is dispatched once. *)
and exec st locals (s : Ir.stmt) : flow =
  match s with
  | Ir.At (_, s) ->
      (* Transparent: located IR must cost the same fuel as plain IR. *)
      exec st locals s
  | Ir.Set_local (slot, e) ->
      tick st;
      Array.unsafe_set locals slot (eval st locals e);
      Next
  | Ir.Set_global (slot, e) ->
      tick st;
      st.cells.(st.global_base + slot) <- eval st locals e;
      Next
  | Ir.Store (arr, idx, v) ->
      tick st;
      let i = eval st locals idx in
      let value = eval st locals v in
      store_arr st arr i value;
      Next
  | Ir.If (cond, t, f) ->
      tick st;
      if eval st locals cond <> 0 then exec_block st locals t
      else exec_block st locals f
  | Ir.While (cond, body, step) ->
      tick st;
      exec_while st locals cond body step
  | Ir.Return None ->
      tick st;
      st.ret <- 0;
      Return
  | Ir.Return (Some e) ->
      tick st;
      st.ret <- eval st locals e;
      Return
  | Ir.Break ->
      tick st;
      Break
  | Ir.Continue ->
      tick st;
      Continue
  | Ir.Eval e ->
      tick st;
      ignore (eval st locals e);
      Next

and exec_block st locals = function
  | [] -> Next
  | [ s ] -> exec st locals s
  | s :: rest -> (
      match exec st locals s with
      | Next -> exec_block st locals rest
      | flow -> flow)

(* A [Break] in the body or the step ends this loop; a [Continue] in
   the body goes on to the step, and one in the step belongs to an
   enclosing loop. *)
and exec_while st locals cond body step =
  if eval st locals cond = 0 then Next
  else
    match exec_block st locals body with
    | Break -> Next
    | Return -> Return
    | Next | Continue -> (
        match exec_block st locals step with
        | Next -> exec_while st locals cond body step
        | Break -> Next
        | (Continue | Return) as flow -> flow)

(* [f]'s [n] arguments are staged from [base]: the depth check comes
   after they are evaluated, then they move into the slab of the new
   depth. *)
and call st (f : Ir.func) base n =
  let depth = st.depth + 1 in
  st.depth <- depth;
  if depth > max_depth then raise stack_overflow;
  let slab = st.slabs.(depth) in
  let locals =
    if Array.length slab < f.Ir.nlocals then grow_slab st depth f.Ir.nlocals
    else slab
  in
  let stage = st.stage in
  for i = 0 to n - 1 do
    locals.(i) <- stage.(base + i)
  done;
  let result =
    match exec_block st locals f.Ir.body with Return -> st.ret | _ -> 0
  in
  st.depth <- depth - 1;
  result

(* Count a run that started with [fuel]. On exhaustion [st.fuel] is
   negative: the whole budget went. *)
let account st fuel =
  let used = if st.fuel > 0 then fuel - st.fuel else fuel in
  Graft_metrics.inc (m_sessions ());
  Graft_metrics.add (m_fuel ()) used

(** [run_session st ~fn ~args ~fuel] invokes function [fn] (an
    {!Ir.entry} index) with integer [args] and returns its result; a
    graft fault raises [Fault.Fault]. Fuel is decremented once per IR
    node evaluated; when it runs out the graft is aborted with
    [Fault.Fuel_exhausted]. *)
let run_session st ~fn ~(args : int array) ~fuel =
  let f = st.funcs.(fn) in
  let n = Array.length args in
  st.fuel <- fuel;
  st.depth <- 0;
  st.top <- 0;
  if Array.length st.stage < n then grow_stage st n;
  Array.blit args 0 st.stage 0 n;
  match call st f 0 n with
  | v ->
      account st fuel;
      v
  | exception (Fault.Fault _ as e) ->
      account st fuel;
      raise e

(** One-shot convenience; resident grafts should keep a session. *)
let run image ~fn ~args ~fuel =
  run_session (create_session image) ~fn ~args ~fuel
