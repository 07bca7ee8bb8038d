(** Reference interpreter for GEL IR: a direct AST walk.

    This is the semantic oracle the VM backends are differentially
    tested against, and it doubles as a measured technology in its own
    right (an AST-walking interpreter sits between a bytecode VM and a
    source-level interpreter in the paper's taxonomy of interpretation
    costs). Every access is checked; fuel is decremented per evaluated
    node so runaway grafts are preempted.

    Control flow is a value, not an exception: [exec] returns whether
    the statement fell through, broke, continued or returned, and a
    [return]'s result waits in the state. No handler is installed per
    loop, iteration or call. The walk recurses directly, never through
    a partial application, and reads [Const]/[Local] operands in place,
    so only a call allocates: the callee's locals, into which its
    arguments are evaluated (and a host call's argument array). *)

open Graft_mem

type flow = Next | Break | Continue | Return

type state = {
  image : Link.image;
  mutable fuel : int;
  mutable depth : int;
  mutable ret : int;  (** the value of the last [Return] flow *)
}

let max_depth = 256

let[@inline] tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted

let load_arr st arr_idx idx =
  let len = st.image.Link.arr_len.(arr_idx) in
  if idx < 0 || idx >= len then
    Fault.raise_fault
      (Fault.Out_of_bounds { access = Fault.Read; addr = idx });
  (Memory.cells st.image.Link.mem).(st.image.Link.arr_base.(arr_idx) + idx)

let store_arr st arr_idx idx v =
  let len = st.image.Link.arr_len.(arr_idx) in
  if idx < 0 || idx >= len then
    Fault.raise_fault
      (Fault.Out_of_bounds { access = Fault.Write; addr = idx });
  if not st.image.Link.arr_writable.(arr_idx) then
    Fault.raise_fault
      (Fault.Protection
         { access = Fault.Write; addr = st.image.Link.arr_base.(arr_idx) + idx });
  (Memory.cells st.image.Link.mem).(st.image.Link.arr_base.(arr_idx) + idx) <- v

(* [Wordops.mask], as a constant the written-out word arithmetic below
   can fold: across modules, [-opaque] builds reach [Wordops] through
   an indirect [caml_apply2] per operation. *)
let word_mask = 0xFFFFFFFF

let arith kind op a b =
  match (kind, op) with
  | Ir.Kint, Ir.Add -> a + b
  | Ir.Kint, Ir.Sub -> a - b
  | Ir.Kint, Ir.Mul -> a * b
  | Ir.Kint, Ir.Div ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero else a / b
  | Ir.Kint, Ir.Mod ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero else a mod b
  | Ir.Kint, Ir.Shl -> Wordops.int_shl a b
  | Ir.Kint, Ir.Shr -> Wordops.int_shr a b
  | Ir.Kint, Ir.Lshr -> Wordops.int_lshr a b
  | Ir.Kint, Ir.Band -> a land b
  | Ir.Kint, Ir.Bor -> a lor b
  | Ir.Kint, Ir.Bxor -> a lxor b
  (* Word arithmetic: [Wordops] semantics, written out. *)
  | Ir.Kword, Ir.Add -> (a + b) land word_mask
  | Ir.Kword, Ir.Sub -> (a - b) land word_mask
  | Ir.Kword, Ir.Mul -> a * b land word_mask
  | Ir.Kword, Ir.Div ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero else a / b
  | Ir.Kword, Ir.Mod ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero else a mod b
  | Ir.Kword, Ir.Shl -> (a lsl (b land 31)) land word_mask
  | Ir.Kword, (Ir.Shr | Ir.Lshr) -> a lsr (b land 31)
  | Ir.Kword, Ir.Band -> a land b
  | Ir.Kword, Ir.Bor -> a lor b
  | Ir.Kword, Ir.Bxor -> a lxor b

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

(* A call's locals, arguments first. *)
let frame (f : Ir.func) =
  let n = f.Ir.nlocals in
  Array.make (if n > 1 then n else 1) 0

let rec eval st locals (e : Ir.expr) : int =
  tick st;
  match e with
  | Ir.Const n -> n
  | Ir.Local slot -> Array.unsafe_get locals slot
  | Ir.Global slot ->
      (Memory.cells st.image.Link.mem).(st.image.Link.global_base + slot)
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
      let f = st.image.Link.prog.Ir.funcs.(fidx) in
      let callee = frame f in
      eval_into st locals args callee;
      call st f callee
  | Ir.CallExt (eidx, args) ->
      let argv = Array.make (Array.length args) 0 in
      eval_into st locals args argv;
      st.image.Link.host.(eidx) argv
  | Ir.ToWord a -> eval st locals a land word_mask
  | Ir.ToBool a -> if eval st locals a = 0 then 0 else 1

(* Arguments in order, left to right, into the first slots of [dst]. *)
and eval_into st locals args dst =
  for i = 0 to Array.length args - 1 do
    let e = Array.unsafe_get args i in
    let v =
      match e with
      | Ir.Const n -> tick st; n
      | Ir.Local slot -> tick st; Array.unsafe_get locals slot
      | _ -> eval st locals e
    in
    dst.(i) <- v
  done

and exec st locals (s : Ir.stmt) : flow =
  match s with
  | Ir.At (_, s) ->
      (* Transparent: located IR must cost the same fuel as plain IR. *)
      exec st locals s
  | _ -> (
      tick st;
      match s with
      | Ir.At (_, s) -> exec st locals s
      | Ir.Set_local (slot, e) ->
          Array.unsafe_set locals slot (eval st locals e);
          Next
      | Ir.Set_global (slot, e) ->
          (Memory.cells st.image.Link.mem).(st.image.Link.global_base + slot) <-
            eval st locals e;
          Next
      | Ir.Store (arr, idx, v) ->
          let i = eval st locals idx in
          let value = eval st locals v in
          store_arr st arr i value;
          Next
      | Ir.If (cond, t, f) ->
          if eval st locals cond <> 0 then exec_block st locals t
          else exec_block st locals f
      | Ir.While (cond, body, step) -> exec_while st locals cond body step
      | Ir.Return None ->
          st.ret <- 0;
          Return
      | Ir.Return (Some e) ->
          st.ret <- eval st locals e;
          Return
      | Ir.Break -> Break
      | Ir.Continue -> Continue
      | Ir.Eval e ->
          ignore (eval st locals e);
          Next)

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

(* [locals] already holds the arguments. *)
and call st (f : Ir.func) locals =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then Fault.raise_fault Fault.Stack_overflow;
  let result =
    match exec_block st locals f.Ir.body with Return -> st.ret | _ -> 0
  in
  st.depth <- st.depth - 1;
  result

(** [run image ~entry ~args ~fuel] invokes [entry] with integer [args].
    Returns the result, the fault that stopped the graft, or an error
    for a bad entry point. Fuel is decremented once per IR node
    evaluated; when it runs out the graft is aborted with
    [Fault.Fuel_exhausted]. *)
let run image ~entry ~(args : int array) ~fuel :
    (int, [ `Fault of Fault.t | `Bad_entry of string ]) result =
  match Ir.find_func image.Link.prog entry with
  | None -> Error (`Bad_entry (Printf.sprintf "no function named %s" entry))
  | Some fidx ->
      let f = image.Link.prog.Ir.funcs.(fidx) in
      if List.length f.Ir.fparams <> Array.length args then
        Error
          (`Bad_entry
            (Printf.sprintf "%s expects %d arguments, given %d" entry
               (List.length f.Ir.fparams) (Array.length args)))
      else begin
        let st = { image; fuel; depth = 0; ret = 0 } in
        let locals = frame f in
        Array.blit args 0 locals 0 (Array.length args);
        try Ok (call st f locals) with Fault.Fault f -> Error (`Fault f)
      end
