(** Reference interpreter for GEL IR: a direct AST walk.

    This is the semantic oracle the VM backends are differentially
    tested against, and it doubles as a measured technology in its own
    right (an AST-walking interpreter sits between a bytecode VM and a
    source-level interpreter in the paper's taxonomy of interpretation
    costs). Every access is checked; fuel is decremented per evaluated
    node so runaway grafts are preempted. The walk recurses directly,
    never through a partial application, so only a call allocates (its
    arguments and locals). *)

open Graft_mem

exception Return_exc of int
exception Break_exc
exception Continue_exc

type state = {
  image : Link.image;
  mutable fuel : int;
  mutable depth : int;
}

let max_depth = 256

let tick st =
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
  | Ir.Kword, Ir.Add -> Wordops.add a b
  | Ir.Kword, Ir.Sub -> Wordops.sub a b
  | Ir.Kword, Ir.Mul -> Wordops.mul a b
  | Ir.Kword, Ir.Div ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero
      else Wordops.div a b
  | Ir.Kword, Ir.Mod ->
      if b = 0 then Fault.raise_fault Fault.Division_by_zero
      else Wordops.rem a b
  | Ir.Kword, Ir.Shl -> Wordops.shl a b
  | Ir.Kword, (Ir.Shr | Ir.Lshr) -> Wordops.shr a b
  | Ir.Kword, Ir.Band -> Wordops.band a b
  | Ir.Kword, Ir.Bor -> Wordops.bor a b
  | Ir.Kword, Ir.Bxor -> Wordops.bxor a b

let compare_vals cmp a b =
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

let rec eval st locals (e : Ir.expr) : int =
  tick st;
  match e with
  | Ir.Const n -> n
  | Ir.Local slot -> Array.unsafe_get locals slot
  | Ir.Global slot ->
      (Memory.cells st.image.Link.mem).(st.image.Link.global_base + slot)
  | Ir.Load (arr, idx) -> load_arr st arr (eval st locals idx)
  | Ir.Arith (kind, op, a, b) ->
      let va = eval st locals a in
      let vb = eval st locals b in
      arith kind op va vb
  | Ir.Cmp (cmp, a, b) ->
      let va = eval st locals a in
      let vb = eval st locals b in
      compare_vals cmp va vb
  | Ir.Not a -> if eval st locals a = 0 then 1 else 0
  | Ir.Bnot (Ir.Kint, a) -> lnot (eval st locals a)
  | Ir.Bnot (Ir.Kword, a) -> Wordops.bnot (eval st locals a)
  | Ir.Neg (Ir.Kint, a) -> -eval st locals a
  | Ir.Neg (Ir.Kword, a) -> Wordops.neg (eval st locals a)
  | Ir.And (a, b) -> if eval st locals a = 0 then 0 else eval st locals b
  | Ir.Or (a, b) -> if eval st locals a <> 0 then 1 else eval st locals b
  | Ir.Call (fidx, args) -> call st fidx (eval_args st locals args)
  | Ir.CallExt (eidx, args) ->
      st.image.Link.host.(eidx) (eval_args st locals args)
  | Ir.ToWord a -> Wordops.of_int (eval st locals a)
  | Ir.ToBool a -> if eval st locals a = 0 then 0 else 1

and exec st locals (s : Ir.stmt) : unit =
  match s with
  | Ir.At (_, s) ->
      (* Transparent: located IR must cost the same fuel as plain IR. *)
      exec st locals s
  | _ ->
  tick st;
  match s with
  | Ir.At (_, s) -> exec st locals s
  | Ir.Set_local (slot, e) -> Array.unsafe_set locals slot (eval st locals e)
  | Ir.Set_global (slot, e) ->
      (Memory.cells st.image.Link.mem).(st.image.Link.global_base + slot) <-
        eval st locals e
  | Ir.Store (arr, idx, v) ->
      let i = eval st locals idx in
      let value = eval st locals v in
      store_arr st arr i value
  | Ir.If (cond, t, f) ->
      if eval st locals cond <> 0 then exec_block st locals t
      else exec_block st locals f
  | Ir.While (cond, body, step) -> (
      try
        while eval st locals cond <> 0 do
          (try exec_block st locals body with Continue_exc -> ());
          exec_block st locals step
        done
      with Break_exc -> ())
  | Ir.Return None -> raise (Return_exc 0)
  | Ir.Return (Some e) -> raise (Return_exc (eval st locals e))
  | Ir.Break -> raise Break_exc
  | Ir.Continue -> raise Continue_exc
  | Ir.Eval e -> ignore (eval st locals e)

and exec_block st locals = function
  | [] -> ()
  | s :: rest ->
      exec st locals s;
      exec_block st locals rest

(* Arguments in order, left to right, as [Array.map] would. *)
and eval_args st locals args =
  let argv = Array.make (Array.length args) 0 in
  for i = 0 to Array.length args - 1 do
    argv.(i) <- eval st locals args.(i)
  done;
  argv

and call st fidx argv =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then Fault.raise_fault Fault.Stack_overflow;
  let f = st.image.Link.prog.Ir.funcs.(fidx) in
  let locals = Array.make (max 1 f.Ir.nlocals) 0 in
  Array.blit argv 0 locals 0 (Array.length argv);
  let result =
    try
      exec_block st locals f.Ir.body;
      0
    with Return_exc v -> v
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
        let st = { image; fuel; depth = 0 } in
        try Ok (call st fidx args) with Fault.Fault f -> Error (`Fault f)
      end
