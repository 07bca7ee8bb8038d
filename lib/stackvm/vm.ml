(** The stack bytecode interpreter: a software virtual machine in the
    style of the 1995 Java VM the paper measured — switch dispatch over
    a bytecode array, an operand stack, per-call local frames, and a
    fuel counter decremented on every instruction so the kernel can
    preempt runaway grafts.

    A {!session} holds the operand stack and frame table so a resident
    graft pays no allocation on each kernel-to-graft entry, as a real
    in-kernel VM would not.

    One dispatch function, [exec], runs every tier's stack code: plain,
    statically checked ([_u] opcodes) and peephole-fused programs
    alike. It is tail-recursive and its state is its arguments: [fuel],
    the session, the current frame's locals, [sp] and [pc]. No path
    that continues the loop contains a call, so ocamlopt keeps that
    state in registers; one call anywhere on such a path would move
    every argument live across it to a stack slot for the whole loop.
    So push, pop and every check are written out at each opcode, and so
    is the arithmetic: the plain arms spell out the word and int-shift
    operations, and the fused arms inline {!bink_fn} and {!cmp_fn}. The
    argument order matters too: the jump-table dispatch clobbers the
    first and fifth argument registers, so those carry [fuel] and [pc],
    which the head replaces before it dispatches. The code, operand
    stack and fuel floor are read from the session (a sixth argument
    would sit in the register variable shifts clobber, and ocamlopt then
    keeps it or [pc] on the stack).

    What leaves the loop. An instruction that needs a call — a [Call]
    whose callee's frame slab must grow, and [Callext] — stores [pc],
    [sp] and [fuel] in the session and returns; an outer loop performs
    it and re-enters. A host call reads its arguments where they lie on
    the operand stack, so it copies nothing; graft maps are reached
    this way too, through the typed helpers. For a [Call] the outer loop
    only grows the slab and re-enters at the [Call] itself, so the call
    is made in one place. A finished entry returns with its result in
    the session. A fault raises inline, after storing [fuel] in the
    session, where the used-fuel accounting reads it.

    The opcode profile single-steps the same loop. [exec] leaves when
    its fuel falls below the session's floor: without a profile the
    floor is 0, so that exit is the fuel check itself; with one, the
    outer loop sets the floor one instruction ahead and counts each opcode
    before it runs. There is no profiled copy of the loop and no
    per-instruction test of the profile. *)

open Graft_mem

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
  code : Opcode.t array;  (** [p]'s tables, one load closer *)
  arrays : Program.arrdesc array;
  cells : int array;
  stack : int array;
  frames : frame array;
  prof : Graft_trace.Opprof.t option;
      (** when set, every executed opcode is counted *)
  (* The loop's registers, stored when it leaves. *)
  mutable pc : int;
  mutable sp : int;  (** operand-stack height *)
  mutable fuel : int;
  mutable depth : int;  (** frames in use, the current one last *)
  mutable result : int;  (** the finished entry's return value *)
  mutable floor : int;  (** [exec] leaves when its fuel falls below *)
}

let create_session ?profile p =
  {
    p;
    code = p.Program.code;
    arrays = p.Program.arrays;
    cells = p.Program.cells;
    stack = Array.make stack_size 0;
    frames = Array.init max_frames (fun _ -> { ret_pc = -1; locals = [||] });
    prof = profile;
    pc = 0;
    sp = 0;
    fuel = 0;
    depth = 0;
    result = 0;
    floor = 0;
  }

(* The faults the loop raises. A failed check raises inline rather
   than calling a raiser: the compiler then knows the check's cold path
   does not return, and keeps no loop variable alive across it. *)
let underflow = Fault.Fault (Fault.Illegal_instruction "stack underflow")
let overflow = Fault.Fault Fault.Stack_overflow
let out_of_fuel = Fault.Fault Fault.Fuel_exhausted
let div_zero = Fault.Fault Fault.Division_by_zero
let halt = Fault.Fault (Fault.Illegal_instruction "halt")

let[@inline] out_of_bounds access addr =
  Fault.Fault (Fault.Out_of_bounds { access; addr })

let[@inline] read_only (d : Program.arrdesc) i =
  Fault.Fault
    (Fault.Protection { access = Fault.Write; addr = d.Program.base + i })

(* Every fault [exec] raises: the fuel first, for the accounting.
   Inlined, so the raise itself sits on the check's cold path. *)
let[@inline] fault s fuel e =
  s.fuel <- fuel;
  raise e

(* [Wordops.mask], as a constant the loop's written-out word arithmetic
   can fold ([Wordops] is not inlined across modules). *)
let word_mask = 0xFFFFFFFF

(* [Wordops]' int shifts, written out for the same reason: amounts are
   taken modulo 64, and 63 saturates on the 63-bit host int. *)
let[@inline] int_shl a n =
  let n = n land 63 in
  if n > 62 then 0 else a lsl n

let[@inline] int_shr a n =
  let n = n land 63 in
  if n > 62 then a asr 62 else a asr n

let[@inline] int_lshr a n =
  let n = n land 63 in
  if n > 62 then 0 else (a land max_int) lsr n

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
  | Opcode.KShl -> int_shl a b
  | Opcode.KShr -> int_shr a b
  | Opcode.KLshr -> int_lshr a b
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

(* [bink_fn] inside the loop, where a zero divisor stores [fuel] before
   it faults, as every other fault there does. *)
let[@inline] bink s fuel op a b =
  if b = 0 then (
    match op with
    | Opcode.KDiv | Opcode.KMod -> fault s fuel div_zero
    | _ -> ());
  bink_fn op a b

(* How [exec] returned. *)
let exit_done = 0 (* the entry returned; its value is in [result] *)
let exit_step = 1 (* fuel reached the floor: one profiled step is done *)
let exit_instr = 2 (* the instruction before [pc] is left to [perform] *)

(* Fuel fell below the floor at an instruction's head. Below 0 the
   instruction cannot run; otherwise a profiled step is over, and the
   head's charge is given back for the instruction's own step. *)
let leave fuel s sp pc =
  if fuel < 0 then fault s fuel out_of_fuel;
  s.pc <- pc;
  s.sp <- sp;
  s.fuel <- fuel + 1;
  exit_step

(* An instruction that needs a call: [pc] is past it, its head's fuel
   is charged and nothing else is done. *)
let[@inline] out fuel s sp pc =
  s.pc <- pc;
  s.sp <- sp;
  s.fuel <- fuel;
  exit_instr

(* The dispatch loop. Stack discipline, written out per opcode: a pop
   checks underflow first, a push that grows the stack checks overflow,
   and a result replacing its operands is stored in place (no push can
   overflow there). The verifier proves no underflow for verified
   code; the check stays as defence in depth and costs one compare. *)
let rec exec fuel s locs sp pc =
  let fuel = fuel - 1 in
  if fuel < s.floor then leave fuel s sp pc
  else
    let instr = Array.unsafe_get s.code pc in
    let pc = pc + 1 in
    let stack = s.stack in
    match instr with
    | Opcode.Const n ->
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp n;
        exec fuel s locs (sp + 1) pc
    | Opcode.Load_local n ->
        let v = locs.(n) in
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp v;
        exec fuel s locs (sp + 1) pc
    | Opcode.Store_local n ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        locs.(n) <- Array.unsafe_get stack t;
        exec fuel s locs t pc
    | Opcode.Load_global a ->
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp (Array.unsafe_get s.cells a);
        exec fuel s locs (sp + 1) pc
    | Opcode.Store_global a ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set s.cells a (Array.unsafe_get stack t);
        exec fuel s locs t pc
    | Opcode.Aload arr ->
        let d = s.arrays.(arr) in
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        let i = Array.unsafe_get stack t in
        if i < 0 || i >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Read i);
        Array.unsafe_set stack t
          (Array.unsafe_get s.cells (d.Program.base + i));
        exec fuel s locs sp pc
    | Opcode.Astore arr ->
        let d = s.arrays.(arr) in
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        let i = Array.unsafe_get stack t in
        if i < 0 || i >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Write i);
        if not d.Program.writable then fault s fuel (read_only d i);
        Array.unsafe_set s.cells (d.Program.base + i)
          (Array.unsafe_get stack (t + 1));
        exec fuel s locs t pc
    (* Unchecked accesses: the verifier proved the index in bounds (and
       the array writable) before execution began, so these really do
       skip the tests — a wrong elision admitted here would corrupt the
       host, which is why [Verify] admits one only where its own
       intervals prove it, from the code alone. *)
    | Opcode.Aload_u arr ->
        let d = s.arrays.(arr) in
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get s.cells
             (d.Program.base + Array.unsafe_get stack t));
        exec fuel s locs sp pc
    | Opcode.Astore_u arr ->
        let d = s.arrays.(arr) in
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set s.cells
          (d.Program.base + Array.unsafe_get stack t)
          (Array.unsafe_get stack (t + 1));
        exec fuel s locs t pc
    | Opcode.Callext _ -> out fuel s sp pc
    | Opcode.Div_u ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t / Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Mod_u ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t mod Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Add ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t + Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Sub ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t - Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Mul ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t * Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Div ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        let b = Array.unsafe_get stack (t + 1) in
        if b = 0 then fault s fuel div_zero;
        Array.unsafe_set stack t (Array.unsafe_get stack t / b);
        exec fuel s locs (t + 1) pc
    | Opcode.Mod ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        let b = Array.unsafe_get stack (t + 1) in
        if b = 0 then fault s fuel div_zero;
        Array.unsafe_set stack t (Array.unsafe_get stack t mod b);
        exec fuel s locs (t + 1) pc
    | Opcode.Shl ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (int_shl (Array.unsafe_get stack t) (Array.unsafe_get stack (t + 1)));
        exec fuel s locs (t + 1) pc
    | Opcode.Shr ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (int_shr (Array.unsafe_get stack t) (Array.unsafe_get stack (t + 1)));
        exec fuel s locs (t + 1) pc
    | Opcode.Lshr ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (int_lshr (Array.unsafe_get stack t)
             (Array.unsafe_get stack (t + 1)));
        exec fuel s locs (t + 1) pc
    | Opcode.Band ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t land Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Bor ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t lor Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Bxor ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t lxor Array.unsafe_get stack (t + 1));
        exec fuel s locs (t + 1) pc
    | Opcode.Bnot ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (lnot (Array.unsafe_get stack t));
        exec fuel s locs sp pc
    | Opcode.Neg ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (-Array.unsafe_get stack t);
        exec fuel s locs sp pc
    (* Word arithmetic: [Wordops] semantics, written out. *)
    | Opcode.Wadd ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          ((Array.unsafe_get stack t + Array.unsafe_get stack (t + 1))
          land word_mask);
        exec fuel s locs (t + 1) pc
    | Opcode.Wsub ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          ((Array.unsafe_get stack t - Array.unsafe_get stack (t + 1))
          land word_mask);
        exec fuel s locs (t + 1) pc
    | Opcode.Wmul ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t * Array.unsafe_get stack (t + 1)
          land word_mask);
        exec fuel s locs (t + 1) pc
    | Opcode.Wshl ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          ((Array.unsafe_get stack t
           lsl (Array.unsafe_get stack (t + 1) land 31))
          land word_mask);
        exec fuel s locs (t + 1) pc
    | Opcode.Wshr ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (Array.unsafe_get stack t
          lsr (Array.unsafe_get stack (t + 1) land 31));
        exec fuel s locs (t + 1) pc
    | Opcode.Wbnot ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (lnot (Array.unsafe_get stack t) land word_mask);
        exec fuel s locs sp pc
    | Opcode.Wneg ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (-Array.unsafe_get stack t land word_mask);
        exec fuel s locs sp pc
    | Opcode.Wmask ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (Array.unsafe_get stack t land word_mask);
        exec fuel s locs sp pc
    | Opcode.Lt ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t < Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Le ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t <= Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Gt ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t > Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Ge ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t >= Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Eq ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t = Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Ne ->
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t <> Array.unsafe_get stack (t + 1) then 1
           else 0);
        exec fuel s locs (t + 1) pc
    | Opcode.Tobool ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t = 0 then 0 else 1);
        exec fuel s locs sp pc
    | Opcode.Not ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if Array.unsafe_get stack t = 0 then 1 else 0);
        exec fuel s locs sp pc
    | Opcode.Jmp target -> exec fuel s locs sp target
    | Opcode.Jz target ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        if Array.unsafe_get stack t = 0 then
          exec fuel s locs t target
        else exec fuel s locs t pc
    | Opcode.Jnz target ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        if Array.unsafe_get stack t <> 0 then
          exec fuel s locs t target
        else exec fuel s locs t pc
    | Opcode.Call target ->
        let dp = s.depth in
        if dp >= max_frames then fault s fuel overflow;
        let f = s.p.Program.funcs.(target) in
        let fr = s.frames.(dp) in
        let locals = fr.locals in
        (* A slab too small for the callee is grown by [perform]. *)
        if Array.length locals < f.Program.nlocals then out fuel s sp pc
        else begin
          (* The top [nargs] operands, last argument on top. *)
          let nargs = f.Program.nargs in
          let t = sp - nargs in
          if t < 0 then fault s fuel underflow;
          fr.ret_pc <- pc;
          s.depth <- dp + 1;
          let entry = f.Program.entry in
          for i = 0 to nargs - 1 do
            locals.(i) <- Array.unsafe_get stack (t + i)
          done;
          exec fuel s locals t entry
        end
    | Opcode.Ret ->
        (* The return value stays where it is: the caller's push of it
           would store it into the same slot. *)
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        let dp = s.depth - 1 in
        s.depth <- dp;
        let ret_pc = s.frames.(dp).ret_pc in
        if ret_pc = -1 then begin
          s.result <- Array.unsafe_get stack t;
          s.fuel <- fuel;
          exit_done
        end
        else
          exec fuel s s.frames.(dp - 1).locals sp ret_pc
    | Opcode.Pop ->
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        exec fuel s locs t pc
    | Opcode.Dup ->
        if sp < 1 then fault s fuel underflow;
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp (Array.unsafe_get stack (sp - 1));
        exec fuel s locs (sp + 1) pc
    | Opcode.Halt -> fault s fuel halt
    (* Fused opcodes charge the fuel of every instruction they replace,
       re-checked before the group's observable action, so optimized
       code exhausts fuel exactly where plain code does. *)
    | Opcode.Bink (op, k) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (bink s fuel op (Array.unsafe_get stack t) k);
        exec fuel s locs sp pc
    | Opcode.Cmpk (c, k) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t
          (if cmp_fn c (Array.unsafe_get stack t) k then 1 else 0);
        exec fuel s locs sp pc
    | Opcode.Jcmp (c, flag, target) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        if
          cmp_fn c (Array.unsafe_get stack t) (Array.unsafe_get stack (t + 1))
          = flag
        then exec fuel s locs t target
        else exec fuel s locs t pc
    | Opcode.Jcmpk (c, k, flag, target) ->
        let fuel = fuel - 2 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        if cmp_fn c (Array.unsafe_get stack t) k = flag then
          exec fuel s locs t target
        else exec fuel s locs t pc
    | Opcode.Aload_k (arr, k) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let d = s.arrays.(arr) in
        if k < 0 || k >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Read k);
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp
          (Array.unsafe_get s.cells (d.Program.base + k));
        exec fuel s locs (sp + 1) pc
    | Opcode.Local_addk (n, k) ->
        let fuel = fuel - 3 in
        if fuel < 0 then fault s fuel out_of_fuel;
        locs.(n) <- locs.(n) + k;
        exec fuel s locs sp pc
    | Opcode.Load_local2 (a, b) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        if sp + 1 >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp locs.(a);
        Array.unsafe_set stack (sp + 1) locs.(b);
        exec fuel s locs (sp + 2) pc
    | Opcode.Bin_local (op, n) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let v = locs.(n) in
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (bink s fuel op (Array.unsafe_get stack t) v);
        exec fuel s locs sp pc
    | Opcode.Bin_local2 (op, a, b) ->
        let fuel = fuel - 2 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let v = bink s fuel op locs.(a) locs.(b) in
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp v;
        exec fuel s locs (sp + 1) pc
    | Opcode.Aload_local (arr, n) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let d = s.arrays.(arr) in
        let i = locs.(n) in
        if i < 0 || i >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Read i);
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp
          (Array.unsafe_get s.cells (d.Program.base + i));
        exec fuel s locs (sp + 1) pc
    | Opcode.Move_local (dst, src) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        locs.(dst) <- locs.(src);
        exec fuel s locs sp pc
    | Opcode.Jcmpk_local (c, n, k, flag, target) ->
        let fuel = fuel - 3 in
        if fuel < 0 then fault s fuel out_of_fuel;
        if cmp_fn c locs.(n) k = flag then
          exec fuel s locs sp target
        else exec fuel s locs sp pc
    | Opcode.Store_localk (n, k) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        locs.(n) <- k;
        exec fuel s locs sp pc
    | Opcode.Bin_store (op, n) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 2 in
        if t < 0 then fault s fuel underflow;
        locs.(n) <-
          bink s fuel op (Array.unsafe_get stack t)
            (Array.unsafe_get stack (t + 1));
        exec fuel s locs t pc
    | Opcode.Bink_store (op, k, n) ->
        let fuel = fuel - 2 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        locs.(n) <- bink s fuel op (Array.unsafe_get stack t) k;
        exec fuel s locs t pc
    | Opcode.Bink_local (op, n, k) ->
        let fuel = fuel - 2 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let v = bink s fuel op locs.(n) k in
        if sp >= stack_size then fault s fuel overflow;
        Array.unsafe_set stack sp v;
        exec fuel s locs (sp + 1) pc
    | Opcode.Bin_aload_local (op, arr, n) ->
        (* The array access is the pattern's 2nd instruction, so fuel is
           charged in two steps to keep the fuel-vs-bounds fault order of
           the unfused code. *)
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let d = s.arrays.(arr) in
        let i = locs.(n) in
        if i < 0 || i >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Read i);
        let v = Array.unsafe_get s.cells (d.Program.base + i) in
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let t = sp - 1 in
        if t < 0 then fault s fuel underflow;
        Array.unsafe_set stack t (bink s fuel op (Array.unsafe_get stack t) v);
        exec fuel s locs sp pc
    | Opcode.Aload_local_store (arr, n, dst) ->
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        let d = s.arrays.(arr) in
        let i = locs.(n) in
        if i < 0 || i >= d.Program.len then
          fault s fuel (out_of_bounds Fault.Read i);
        let v = Array.unsafe_get s.cells (d.Program.base + i) in
        let fuel = fuel - 1 in
        if fuel < 0 then fault s fuel out_of_fuel;
        locs.(dst) <- v;
        exec fuel s locs sp pc
    | Opcode.Move_local2 (d1, s1, d2, s2) ->
        let fuel = fuel - 3 in
        if fuel < 0 then fault s fuel out_of_fuel;
        locs.(d1) <- locs.(s1);
        locs.(d2) <- locs.(s2);
        exec fuel s locs sp pc

(* A frame's local slab, grown to hold [nlocals]. The slab is reused
   when big enough: GEL locals are always written before read, so stale
   values are invisible. *)
let frame_locals fr nlocals =
  if Array.length fr.locals < nlocals then
    fr.locals <- Array.make (max 8 nlocals) 0;
  fr.locals

(* Re-enter the loop from the stored registers. *)
let enter s floor =
  s.floor <- floor;
  exec s.fuel s s.frames.(s.depth - 1).locals s.sp s.pc

(* The instruction [exec] left: the one before the stored [pc], its
   head's fuel charged. [s.fuel] is current, so a fault raises plainly.
   Returns whether the instruction is done. A [Call] is not: [perform]
   only grows the callee's frame slab, then sets [pc] back to the
   [Call] and gives back its head's fuel, and [exec]'s own arm makes
   the call when the loop re-enters. *)
let perform s =
  let p = s.p in
  let stack = s.stack in
  let sp = s.sp in
  match p.Program.code.(s.pc - 1) with
  | Opcode.Call target ->
      ignore
        (frame_locals s.frames.(s.depth)
           p.Program.funcs.(target).Program.nlocals);
      s.pc <- s.pc - 1;
      s.fuel <- s.fuel + 1;
      false
  | Opcode.Callext target ->
      (* The host reads its arguments in place, from [t]. A host call
         with no arguments pushes onto [sp] itself, which may be the
         top of the stack. *)
      let t = sp - p.Program.ext_arity.(target) in
      if t < 0 then raise underflow;
      let v = p.Program.host.(target) stack t in
      if t >= stack_size then raise overflow;
      Array.unsafe_set stack t v;
      s.sp <- t + 1;
      true
  | _ -> assert false

(* The outer loop without a profile: the floor is 0, so [exec] leaves
   only to finish or for [perform]. *)
let rec drive s =
  if enter s 0 <> exit_done then begin
    ignore (perform s);
    drive s
  end

(* With one: each instruction whose head's fuel is there is counted,
   then run as one step of the same loop; a [Call] that [perform] sent
   back to [exec] was counted already. At 0 fuel the entry faults
   uncounted, as the instruction's own fuel check would. *)
let rec step s pr ~count =
  let fuel = s.fuel in
  if count && fuel > 0 then begin
    let instr = s.code.(s.pc) in
    Graft_trace.Opprof.hit pr (Opcode.index instr) (Opcode.width instr)
  end;
  let exit = enter s (if fuel > 0 then fuel - 1 else 0) in
  if exit = exit_step then step s pr ~count:true
  else if exit = exit_instr then step s pr ~count:(perform s)

(* Count an entry that started with [fuel]. Fuel consumed = fuel
   charged: on exhaustion [s.fuel] is negative and the whole budget was
   burned. *)
let account s fuel tok =
  let used = if s.fuel > 0 then fuel - s.fuel else fuel in
  (match s.prof with
  | None -> ()
  | Some pr -> Graft_trace.Opprof.run_done pr ~fuel:used);
  Graft_metrics.inc (m_sessions_interp ());
  Graft_metrics.add (m_fuel_interp ()) used;
  Graft_metrics.observe (m_fuel_hist ()) used;
  Graft_trace.Trace.span_end ~arg:0 Graft_trace.Trace.Vm_stack "stackvm.run" tok

let run_session (s : session) ~fn ~(args : int array) ~fuel =
  let f = s.p.Program.funcs.(fn) in
  (* Frame 0: the arguments become the entry's first locals, as if
     pushed and popped by a call. *)
  let fr = s.frames.(0) in
  fr.ret_pc <- -1;
  let locals = frame_locals fr f.Program.nlocals in
  Array.blit args 0 locals 0 (Array.length args);
  s.depth <- 1;
  s.pc <- f.Program.entry;
  s.sp <- 0;
  s.fuel <- fuel;
  (* Sampled entry span (see [Trace.hot_begin]): a resident graft is
     entered once per kernel event, far too often to time every run. *)
  let tok = Graft_trace.Trace.hot_begin () in
  match
    match s.prof with None -> drive s | Some pr -> step s pr ~count:true
  with
  | () ->
      account s fuel tok;
      s.result
  | exception (Fault.Fault f as e) ->
      Graft_trace.Trace.instant Graft_trace.Trace.Vm_stack
        ("fault:" ^ Fault.class_name f);
      account s fuel tok;
      raise e

(** One-shot convenience; resident grafts should keep a session. *)
let run p ~fn ~args ~fuel = run_session (create_session p) ~fn ~args ~fuel
