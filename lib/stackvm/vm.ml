(** The stack bytecode interpreter: a software virtual machine in the
    style of the 1995 Java VM the paper measured — switch dispatch over
    a bytecode array, an operand stack, per-call local frames, and a
    fuel counter decremented on every instruction so the kernel can
    preempt runaway grafts.

    A {!session} holds the operand stack and frame table so a resident
    graft pays no allocation on each kernel-to-graft entry, as a real
    in-kernel VM would not.

    One dispatch loop runs every tier's stack code: plain, statically
    checked ([_u] opcodes) and peephole-fused programs alike. It keeps
    its state in mutable locals no closure captures: without flambda a
    captured [ref] is a heap box and a helper closure an indirect call,
    so push, pop and every check are written out at each opcode
    instead. The arithmetic is written out too: the plain arms spell
    out the word operations, and the fused arms inline {!bink_fn} and
    {!cmp_fn}, so no arm calls out of the loop for its operator. *)

open Graft_mem
open Graft_gel

let max_frames = 256
let stack_size = 4096

(* Graftmeter counters; the [tier] label names the engine (this loop
   is "interp", whichever loader built the program). Incremented once
   per session exit so the dispatch loop itself stays untouched. *)
let m_sessions_interp =
  Graft_metrics.domain_counter "graftkit_vm_sessions"
    ~help:"VM sessions run, by tier"
    [ ("tier", "interp") ]

let m_fuel_interp =
  Graft_metrics.domain_counter "graftkit_vm_fuel"
    ~help:"Fuel (instruction budget) consumed, by tier"
    [ ("tier", "interp") ]

let m_fuel_hist =
  Graft_metrics.domain_histogram "graftkit_vm_fuel_per_session"
    ~help:"Fuel consumed per session (log2 buckets)" []

type frame = { mutable ret_pc : int; mutable locals : int array }

type session = {
  p : Program.t;
  stack : int array;
  frames : frame array;
  mutable prof : Graft_trace.Opprof.t option;
      (** when set, the dispatch loop counts every executed opcode *)
}

let create_session ?profile p =
  {
    p;
    stack = Array.make stack_size 0;
    frames = Array.init max_frames (fun _ -> { ret_pc = -1; locals = [||] });
    prof = profile;
  }

(* The faults the loop raises. A failed check raises inline rather
   than calling a raiser: the compiler then knows the check's cold path
   does not return, and keeps no loop variable alive across it. *)
let underflow = Fault.Fault (Fault.Illegal_instruction "stack underflow")
let overflow = Fault.Fault Fault.Stack_overflow
let out_of_fuel = Fault.Fault Fault.Fuel_exhausted
let div_zero = Fault.Fault Fault.Division_by_zero
let halt = Fault.Fault (Fault.Illegal_instruction "halt")

let out_of_bounds access addr =
  Fault.Fault (Fault.Out_of_bounds { access; addr })

let read_only (d : Program.arrdesc) i =
  Fault.Fault
    (Fault.Protection { access = Fault.Write; addr = d.Program.base + i })

(* [Wordops.mask], as a constant the loop's written-out word arithmetic
   can fold ([Wordops] is not inlined across modules). *)
let word_mask = 0xFFFFFFFF

(* The fused opcodes' operator and comparison, written out as the plain
   arms write theirs and inlined into each fused arm, so a fused
   instruction pays no call (an [Opcode] function costs an indirect
   [caml_apply3] under [-opaque]). [KDiv]/[KMod] carry a non-zero
   constant in verified code; the divisor test stays as defence in
   depth. The JIT calls these too. [cmp_fn]'s operands are typed:
   untyped, [<] would be OCaml's polymorphic compare, a C call. *)
let[@inline] bink_fn op a b =
  match op with
  | Opcode.KAdd -> a + b
  | Opcode.KSub -> a - b
  | Opcode.KMul -> a * b
  | Opcode.KDiv ->
      if b = 0 then raise div_zero;
      a / b
  | Opcode.KMod ->
      if b = 0 then raise div_zero;
      a mod b
  | Opcode.KShl -> Wordops.int_shl a b
  | Opcode.KShr -> Wordops.int_shr a b
  | Opcode.KLshr -> Wordops.int_lshr a b
  | Opcode.KBand -> a land b
  | Opcode.KBor -> a lor b
  | Opcode.KBxor -> a lxor b
  | Opcode.KWadd -> (a + b) land word_mask
  | Opcode.KWsub -> (a - b) land word_mask
  | Opcode.KWmul -> a * b land word_mask
  | Opcode.KWshl -> (a lsl (b land 31)) land word_mask
  | Opcode.KWshr -> a lsr (b land 31)

let[@inline] cmp_fn c (a : int) (b : int) =
  match c with
  | Opcode.Clt -> a < b
  | Opcode.Cle -> a <= b
  | Opcode.Cgt -> a > b
  | Opcode.Cge -> a >= b
  | Opcode.Ceq -> a = b
  | Opcode.Cne -> a <> b

(* A frame's local slab, grown to hold [nlocals]. The slab is reused
   when big enough: GEL locals are always written before read, so
   stale values are invisible. *)
let frame_locals fr nlocals =
  if Array.length fr.locals < nlocals then
    fr.locals <- Array.make (max 8 nlocals) 0;
  fr.locals

(* Frame 0 of an entry into [f]: the arguments become its first
   locals, as if pushed and popped by a call. *)
let entry_frame frames (f : Program.funcdesc) args =
  let fr = frames.(0) in
  fr.ret_pc <- -1;
  let locals = frame_locals fr f.Program.nlocals in
  Array.blit args 0 locals 0 (Array.length args);
  locals

let run_session (s : session) ~entry ~(args : int array) ~fuel :
    (int, [ `Fault of Fault.t | `Bad_entry of string ]) result =
  let p = s.p in
  match Program.find_func p entry with
  | None -> Error (`Bad_entry (Printf.sprintf "no function named %s" entry))
  | Some fidx when p.Program.funcs.(fidx).Program.nargs <> Array.length args
    ->
      Error
        (`Bad_entry
          (Printf.sprintf "%s expects %d arguments, given %d" entry
             p.Program.funcs.(fidx).Program.nargs (Array.length args)))
  | Some fidx -> (
      let code = p.Program.code in
      let cells = p.Program.cells in
      let arrays = p.Program.arrays in
      let stack = s.stack in
      let frames = s.frames in
      let prof = s.prof in
      let fuel0 = fuel in
      let fuel = ref fuel in
      let f = p.Program.funcs.(fidx) in
      (* Operand-stack height: the top value is [stack.(!sp - 1)]. *)
      let sp = ref 0 in
      let depth = ref 1 in
      let pc = ref f.Program.entry in
      (* Current frame's locals, re-cached on call and return. *)
      let locs = ref (entry_frame frames f args) in
      let result = ref 0 in
      let running = ref true in
      (* Sampled entry span (see [Trace.hot_begin]): a resident graft is
         entered once per kernel event, far too often to time every
         run. *)
      let tok = Graft_trace.Trace.hot_begin () in
      let outcome =
        try
          while !running do
            fuel := !fuel - 1;
            if !fuel < 0 then raise out_of_fuel;
            let instr = Array.unsafe_get code !pc in
            incr pc;
            (match prof with
            | None -> ()
            | Some pr ->
                Graft_trace.Opprof.hit pr (Opcode.index instr)
                  (Opcode.width instr));
            (* Stack discipline, written out per opcode: a pop checks
               underflow first, a push that grows the stack checks
               overflow, and a result replacing its operands is stored
               in place (no push can overflow there). The verifier
               proves no underflow for verified code; the check stays
               as defence in depth and costs one compare. *)
            match instr with
            | Opcode.Const n ->
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t n;
                sp := t + 1
            | Opcode.Load_local n ->
                let v = !locs.(n) in
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t v;
                sp := t + 1
            | Opcode.Store_local n ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                !locs.(n) <- Array.unsafe_get stack t
            | Opcode.Load_global a ->
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t (Array.unsafe_get cells a);
                sp := t + 1
            | Opcode.Store_global a ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                Array.unsafe_set cells a (Array.unsafe_get stack t)
            | Opcode.Aload arr ->
                let d = arrays.(arr) in
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                let i = Array.unsafe_get stack t in
                if i < 0 || i >= d.Program.len then
                  raise (out_of_bounds Fault.Read i);
                Array.unsafe_set stack t
                  (Array.unsafe_get cells (d.Program.base + i))
            | Opcode.Astore arr ->
                let d = arrays.(arr) in
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t;
                let i = Array.unsafe_get stack t in
                if i < 0 || i >= d.Program.len then
                  raise (out_of_bounds Fault.Write i);
                if not d.Program.writable then raise (read_only d i);
                Array.unsafe_set cells (d.Program.base + i)
                  (Array.unsafe_get stack (t + 1))
            (* Unchecked accesses: the verifier proved the index in
               bounds (and the array writable) before execution began,
               so these really do skip the tests — a wrong proof
               admitted here would corrupt the host, which is why
               [Verify] derives its own intervals instead of trusting
               the manifest. *)
            | Opcode.Aload_u arr ->
                let d = arrays.(arr) in
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (Array.unsafe_get cells
                     (d.Program.base + Array.unsafe_get stack t))
            | Opcode.Astore_u arr ->
                let d = arrays.(arr) in
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t;
                Array.unsafe_set cells
                  (d.Program.base + Array.unsafe_get stack t)
                  (Array.unsafe_get stack (t + 1))
            | Opcode.Mlookup m ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (Graft_kernel.Graftmap.lookup p.Program.maps.(m)
                     (Array.unsafe_get stack t))
            | Opcode.Mupdate m ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Graft_kernel.Graftmap.update p.Program.maps.(m)
                     (Array.unsafe_get stack t)
                     (Array.unsafe_get stack (t + 1)))
            | Opcode.Mlookup_u m ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (Graft_kernel.Graftmap.unsafe_get p.Program.maps.(m)
                     (Array.unsafe_get stack t))
            | Opcode.Mupdate_u m ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Graft_kernel.Graftmap.unsafe_set p.Program.maps.(m)
                  (Array.unsafe_get stack t)
                  (Array.unsafe_get stack (t + 1));
                Array.unsafe_set stack t 1
            | Opcode.Div_u ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t / Array.unsafe_get stack (t + 1))
            | Opcode.Mod_u ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t mod Array.unsafe_get stack (t + 1))
            | Opcode.Add ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t + Array.unsafe_get stack (t + 1))
            | Opcode.Sub ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t - Array.unsafe_get stack (t + 1))
            | Opcode.Mul ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t * Array.unsafe_get stack (t + 1))
            | Opcode.Div ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                let b = Array.unsafe_get stack (t + 1) in
                if b = 0 then raise div_zero;
                sp := t + 1;
                Array.unsafe_set stack t (Array.unsafe_get stack t / b)
            | Opcode.Mod ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                let b = Array.unsafe_get stack (t + 1) in
                if b = 0 then raise div_zero;
                sp := t + 1;
                Array.unsafe_set stack t (Array.unsafe_get stack t mod b)
            | Opcode.Shl ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Wordops.int_shl (Array.unsafe_get stack t)
                     (Array.unsafe_get stack (t + 1)))
            | Opcode.Shr ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Wordops.int_shr (Array.unsafe_get stack t)
                     (Array.unsafe_get stack (t + 1)))
            | Opcode.Lshr ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Wordops.int_lshr (Array.unsafe_get stack t)
                     (Array.unsafe_get stack (t + 1)))
            | Opcode.Band ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t land Array.unsafe_get stack (t + 1))
            | Opcode.Bor ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t lor Array.unsafe_get stack (t + 1))
            | Opcode.Bxor ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t lxor Array.unsafe_get stack (t + 1))
            | Opcode.Bnot ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t (lnot (Array.unsafe_get stack t))
            | Opcode.Neg ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t (-Array.unsafe_get stack t)
            (* Word arithmetic: [Wordops] semantics, written out. *)
            | Opcode.Wadd ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  ((Array.unsafe_get stack t + Array.unsafe_get stack (t + 1))
                  land word_mask)
            | Opcode.Wsub ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  ((Array.unsafe_get stack t - Array.unsafe_get stack (t + 1))
                  land word_mask)
            | Opcode.Wmul ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t * Array.unsafe_get stack (t + 1)
                  land word_mask)
            | Opcode.Wshl ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  ((Array.unsafe_get stack t
                   lsl (Array.unsafe_get stack (t + 1) land 31))
                  land word_mask)
            | Opcode.Wshr ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t
                  lsr (Array.unsafe_get stack (t + 1) land 31))
            | Opcode.Wbnot ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (lnot (Array.unsafe_get stack t) land word_mask)
            | Opcode.Wneg ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (-Array.unsafe_get stack t land word_mask)
            | Opcode.Wmask ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (Array.unsafe_get stack t land word_mask)
            | Opcode.Lt ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t < Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Le ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t <= Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Gt ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t > Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Ge ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t >= Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Eq ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t = Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Ne ->
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t + 1;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t <> Array.unsafe_get stack (t + 1)
                   then 1
                   else 0)
            | Opcode.Tobool ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t = 0 then 0 else 1)
            | Opcode.Not ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (if Array.unsafe_get stack t = 0 then 1 else 0)
            | Opcode.Jmp t -> pc := t
            | Opcode.Jz target ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                if Array.unsafe_get stack t = 0 then pc := target
            | Opcode.Jnz target ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                if Array.unsafe_get stack t <> 0 then pc := target
            | Opcode.Call target ->
                let dp = !depth in
                if dp >= max_frames then raise overflow;
                let f = p.Program.funcs.(target) in
                let fr = frames.(dp) in
                fr.ret_pc <- !pc;
                let locals = frame_locals fr f.Program.nlocals in
                (* The top [nargs] operands, last argument on top. *)
                let nargs = f.Program.nargs in
                let t = !sp - nargs in
                if t < 0 then raise underflow;
                for i = 0 to nargs - 1 do
                  locals.(i) <- Array.unsafe_get stack (t + i)
                done;
                sp := t;
                depth := dp + 1;
                locs := locals;
                pc := f.Program.entry
            | Opcode.Callext target ->
                let arity = p.Program.ext_arity.(target) in
                let argv = Array.make arity 0 in
                let t = !sp - arity in
                if t < 0 then raise underflow;
                for i = 0 to arity - 1 do
                  argv.(i) <- Array.unsafe_get stack (t + i)
                done;
                sp := t;
                let v = p.Program.host.(target) argv in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t v;
                sp := t + 1
            | Opcode.Ret ->
                (* The return value stays where it is: the caller's
                   push of it would store it into the same slot. *)
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                let dp = !depth - 1 in
                depth := dp;
                let ret_pc = frames.(dp).ret_pc in
                if ret_pc = -1 then begin
                  result := Array.unsafe_get stack t;
                  running := false
                end
                else begin
                  locs := frames.(dp - 1).locals;
                  pc := ret_pc
                end
            | Opcode.Pop ->
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t
            | Opcode.Dup ->
                let t = !sp in
                if t < 1 then raise underflow;
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t (Array.unsafe_get stack (t - 1));
                sp := t + 1
            | Opcode.Halt -> raise halt
            (* Fused opcodes charge the fuel of every instruction they
               replace, re-checked before the group's observable
               action, so optimized code exhausts fuel exactly where
               plain code does. *)
            | Opcode.Bink (op, k) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (bink_fn op (Array.unsafe_get stack t) k)
            | Opcode.Cmpk (c, k) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (if cmp_fn c (Array.unsafe_get stack t) k then 1
                   else 0)
            | Opcode.Jcmp (c, flag, target) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t;
                if
                  cmp_fn c (Array.unsafe_get stack t)
                    (Array.unsafe_get stack (t + 1))
                  = flag
                then pc := target
            | Opcode.Jcmpk (c, k, flag, target) ->
                fuel := !fuel - 2;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                if cmp_fn c (Array.unsafe_get stack t) k = flag then
                  pc := target
            | Opcode.Aload_k (arr, k) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let d = arrays.(arr) in
                if k < 0 || k >= d.Program.len then
                  raise (out_of_bounds Fault.Read k);
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t
                  (Array.unsafe_get cells (d.Program.base + k));
                sp := t + 1
            | Opcode.Local_addk (n, k) ->
                fuel := !fuel - 3;
                if !fuel < 0 then raise out_of_fuel;
                let locals = !locs in
                locals.(n) <- locals.(n) + k
            | Opcode.Load_local2 (a, b) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let locals = !locs in
                let t = !sp in
                if t + 1 >= stack_size then raise overflow;
                Array.unsafe_set stack t locals.(a);
                Array.unsafe_set stack (t + 1) locals.(b);
                sp := t + 2
            | Opcode.Bin_local (op, n) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let v = !locs.(n) in
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (bink_fn op (Array.unsafe_get stack t) v)
            | Opcode.Bin_local2 (op, a, b) ->
                fuel := !fuel - 2;
                if !fuel < 0 then raise out_of_fuel;
                let locals = !locs in
                let v = bink_fn op locals.(a) locals.(b) in
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t v;
                sp := t + 1
            | Opcode.Aload_local (arr, n) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let d = arrays.(arr) in
                let i = !locs.(n) in
                if i < 0 || i >= d.Program.len then
                  raise (out_of_bounds Fault.Read i);
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t
                  (Array.unsafe_get cells (d.Program.base + i));
                sp := t + 1
            | Opcode.Move_local (dst, src) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let locals = !locs in
                locals.(dst) <- locals.(src)
            | Opcode.Jcmpk_local (c, n, k, flag, target) ->
                fuel := !fuel - 3;
                if !fuel < 0 then raise out_of_fuel;
                if cmp_fn c !locs.(n) k = flag then pc := target
            | Opcode.Store_localk (n, k) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                !locs.(n) <- k
            | Opcode.Bin_store (op, n) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 2 in
                if t < 0 then raise underflow;
                sp := t;
                !locs.(n) <-
                  bink_fn op (Array.unsafe_get stack t)
                    (Array.unsafe_get stack (t + 1))
            | Opcode.Bink_store (op, k, n) ->
                fuel := !fuel - 2;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                sp := t;
                !locs.(n) <- bink_fn op (Array.unsafe_get stack t) k
            | Opcode.Bink_local (op, n, k) ->
                fuel := !fuel - 2;
                if !fuel < 0 then raise out_of_fuel;
                let v = bink_fn op !locs.(n) k in
                let t = !sp in
                if t >= stack_size then raise overflow;
                Array.unsafe_set stack t v;
                sp := t + 1
            | Opcode.Bin_aload_local (op, arr, n) ->
                (* The array access is the pattern's 2nd instruction, so
                   fuel is charged in two steps to keep the
                   fuel-vs-bounds fault order of the unfused code. *)
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let d = arrays.(arr) in
                let i = !locs.(n) in
                if i < 0 || i >= d.Program.len then
                  raise (out_of_bounds Fault.Read i);
                let v = Array.unsafe_get cells (d.Program.base + i) in
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let t = !sp - 1 in
                if t < 0 then raise underflow;
                Array.unsafe_set stack t
                  (bink_fn op (Array.unsafe_get stack t) v)
            | Opcode.Aload_local_store (arr, n, dst) ->
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                let d = arrays.(arr) in
                let locals = !locs in
                let i = locals.(n) in
                if i < 0 || i >= d.Program.len then
                  raise (out_of_bounds Fault.Read i);
                let v = Array.unsafe_get cells (d.Program.base + i) in
                fuel := !fuel - 1;
                if !fuel < 0 then raise out_of_fuel;
                locals.(dst) <- v
            | Opcode.Move_local2 (d1, s1, d2, s2) ->
                fuel := !fuel - 3;
                if !fuel < 0 then raise out_of_fuel;
                let locals = !locs in
                locals.(d1) <- locals.(s1);
                locals.(d2) <- locals.(s2)
          done;
          Ok !result
        with Fault.Fault f ->
          Graft_trace.Trace.instant Graft_trace.Trace.Vm_stack
            ("fault:" ^ Fault.class_name f);
          Error (`Fault f)
      in
      (* Fuel consumed = fuel charged: on exhaustion [!fuel] is
         negative and the whole budget was burned. *)
      let used = if !fuel > 0 then fuel0 - !fuel else fuel0 in
      (match prof with
      | None -> ()
      | Some pr -> Graft_trace.Opprof.run_done pr ~fuel:used);
      Graft_metrics.inc (m_sessions_interp ());
      Graft_metrics.inc (m_fuel_interp ()) ~by:used;
      Graft_metrics.observe (m_fuel_hist ()) used;
      Graft_trace.Trace.span_end Graft_trace.Trace.Vm_stack "stackvm.run" tok;
      outcome)

(** One-shot convenience; resident grafts should keep a session. *)
let run p ~entry ~args ~fuel = run_session (create_session p) ~entry ~args ~fuel
