(** Register-interval dataflow over SFI register code.

    A small forward abstract interpretation that assigns every program
    point an interval per register ({!Graft_analysis.Interval}). It is
    the evidence base for mask elision: {!Sfi.instrument} uses it to
    find stores whose effective address is provably inside the sandbox
    segment (so the masking triple is dead weight), and {!Verify} runs
    the same analysis over the instrumented code to admit or refuse
    each access left unmasked. The instrumenter records nothing and
    holds no special authority: an unmasked access the verifier's own
    run cannot prove in-segment is rejected at load time.

    The analysis is deliberately blunt where bluntness is cheap:
    - no branch refinement — both edges of [brz]/[brnz] get the same
      state (the profitable elisions here are constant global slots and
      masked indices, which need no path sensitivity);
    - loads produce ⊤, calls clobber only their destination register
      (the machine gives every activation its own register frame);
    - r0 starts at [0,0] and stays there, since the verifier's
      register-discipline pass refuses any write to it.

    The state holds only the registers the code names (one past the
    highest register any instruction reads or writes), not the
    machine's 128: a register no instruction names never changes, so
    leaving it out changes no interval of the ones that are named.

    Iteration is the stack verifier's solver
    ({!Graft_analysis.Fixpoint}): a lowest-pc worklist that widens only
    at back-edge targets. The result is a deterministic function of the
    instruction array, and the masking triples the instrumenter inserts
    are straight-line code that writes only r1 and r2, so the
    instrumenter and the verifier converge to the same intervals for
    the registers elisions depend on. *)

module I = Graft_analysis.Interval

(* One past the highest register [code] reads or writes, a call's
   argument block included: the registers the state must track. *)
let named_registers (code : Isa.instr array) =
  let hi = ref Isa.reg_zero in
  let see r = if r > !hi then hi := r in
  Array.iter
    (function
      | Isa.Movi (rd, _) -> see rd
      | Isa.Mov (rd, rs)
      | Isa.Addi (rd, rs, _)
      | Isa.Andi (rd, rs, _)
      | Isa.Ori (rd, rs, _)
      | Isa.Un (_, rd, rs)
      | Isa.Ld (rd, rs, _)
      | Isa.St (rd, rs, _) ->
          see rd;
          see rs
      | Isa.Bin (_, _, rd, rs1, rs2) | Isa.Cmp (_, rd, rs1, rs2) ->
          see rd;
          see rs1;
          see rs2
      | Isa.Brz (rs, _) | Isa.Brnz (rs, _) | Isa.Ret rs -> see rs
      | Isa.Call { dst; argbase; nargs; _ }
      | Isa.Callext { dst; argbase; nargs; _ } ->
          see dst;
          see (argbase + nargs - 1)
      | Isa.Br _ | Isa.Halt -> ())
    code;
  !hi + 1

let entry_state nregs =
  let s = Array.make nregs I.top in
  s.(Isa.reg_zero) <- I.const 0;
  s

(* Join [now] into [old], register by register; [None] when nothing
   grows. *)
let merge ~wide old now =
  if Array.for_all2 (fun o v -> I.leq v o) old now then None
  else
    Some
      (Array.map2
         (fun o v ->
           let j = I.join o v in
           if wide then I.widen o j else j)
         old now)

(** [analyze code funcs] returns the in-state for every pc: the
    register intervals that hold just before the instruction executes.
    [None] marks pcs the analysis never reached (dead code). *)
let analyze (code : Isa.instr array) (funcs : Program.funcdesc array) :
    I.t array option array =
  let nregs = named_registers code in
  let transfer pc cur arrive =
    let st = Array.copy cur in
    let set rd iv = if rd <> Isa.reg_zero then st.(rd) <- iv in
    let next () = arrive (pc + 1) st in
    match code.(pc) with
    | Isa.Movi (rd, imm) ->
        set rd (I.const imm);
        next ()
    | Isa.Mov (rd, rs) ->
        set rd st.(rs);
        next ()
    | Isa.Bin (k, op, rd, rs1, rs2) ->
        set rd (I.arith k op st.(rs1) st.(rs2));
        next ()
    | Isa.Addi (rd, rs, imm) ->
        set rd (I.add st.(rs) (I.const imm));
        next ()
    | Isa.Andi (rd, rs, imm) ->
        set rd (I.arith Graft_gel.Ir.Kint Graft_gel.Ir.Band st.(rs)
                  (I.const imm));
        next ()
    | Isa.Ori (rd, rs, imm) ->
        set rd (I.arith Graft_gel.Ir.Kint Graft_gel.Ir.Bor st.(rs)
                  (I.const imm));
        next ()
    | Isa.Cmp (_, rd, _, _) ->
        set rd (I.range 0 1);
        next ()
    | Isa.Un (u, rd, rs) ->
        let iv =
          match u with
          | Isa.Uneg k -> I.neg_k k st.(rs)
          | Isa.Ubnot k -> I.bnot k st.(rs)
          | Isa.Unot | Isa.Utobool -> I.range 0 1
          | Isa.Umask -> I.to_word st.(rs)
        in
        set rd iv;
        next ()
    | Isa.Ld (rd, _, _) ->
        set rd I.top;
        next ()
    | Isa.St _ -> next ()
    | Isa.Br t -> arrive t st
    | Isa.Brz (_, t) | Isa.Brnz (_, t) ->
        arrive t st;
        next ()
    | Isa.Call { dst; _ } | Isa.Callext { dst; _ } ->
        set dst I.top;
        next ()
    | Isa.Ret _ | Isa.Halt -> ()
  in
  let target pc =
    match code.(pc) with
    | Isa.Br t | Isa.Brz (_, t) | Isa.Brnz (_, t) -> Some t
    | _ -> None
  in
  Graft_analysis.Fixpoint.solve ~lo:0 ~hi:(Array.length code) ~target ~merge
    ~transfer
    (Array.to_list
       (Array.map
          (fun (f : Program.funcdesc) -> (f.Program.entry, entry_state nregs))
          funcs))

(** Effective-address interval of a memory access [mem\[r.(rb) + off\]]
    given the in-state at its pc; [I.bot] if the pc is unreachable. *)
let address (states : I.t array option array) pc rb off =
  if pc < 0 || pc >= Array.length states then I.bot
  else
    match states.(pc) with
    | None -> I.bot
    | Some st -> I.add st.(rb) (I.const off)
