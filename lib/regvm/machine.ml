(** Evaluator for register-VM code.

    Besides the result it reports the number of instructions executed,
    which gives an interpreter-speed-independent measure of the SFI
    instrumentation overhead (the extra and/or/addi per store) used by
    the ablation benches. *)

open Graft_mem
open Graft_gel

let max_frames = 256

(* Graftmeter counters: the regvm tier's series in the shared
   graftkit_vm_* families (the stack tiers register the family help). *)
let m_sessions =
  Graft_metrics.domain_counter "graftkit_vm_sessions" [ ("tier", "regvm") ]

let m_fuel = Graft_metrics.domain_counter "graftkit_vm_fuel" [ ("tier", "regvm") ]

type outcome = { value : int; instructions : int }

type frame = { regs : int array; mutable ret_pc : int; mutable dst : int }

(** Preallocated register windows, reused across kernel-to-graft
    entries like a resident VM's. Safe because generated code writes
    every register before reading it (locals are initialized at
    declaration; r0 is never written and stays zero). *)
type session = {
  p : Program.t;
  frames : frame array;
  mutable prof : Graft_trace.Opprof.t option;
      (** when set, the dispatch loop counts every executed opcode *)
}

let create_session ?profile p =
  {
    p;
    frames =
      Array.init max_frames (fun _ ->
          { regs = Array.make Isa.nregs 0; ret_pc = -1; dst = 0 });
    prof = profile;
  }

let run_session (s : session) ~entry ~(args : int array) ~fuel :
    (outcome, [ `Fault of Fault.t | `Bad_entry of string ]) result =
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
      let ncells = Array.length cells in
      let frames = s.frames in
      let depth = ref 0 in
      let fuel0 = fuel in
      let fuel = ref fuel in
      let prof = s.prof in
      let icount = ref 0 in
      let addr_check access a =
        if a < 0 || a >= ncells then
          Fault.raise_fault (Fault.Out_of_bounds { access; addr = a })
      in
      let tok = Graft_trace.Trace.hot_begin () in
      let outcome =
        try
          (* Frame 0, set up in place: no closure captures [regs],
             [depth] or any other mutable loop variable, so none of
             them lives in a heap box. *)
          let frame = frames.(0) in
          frame.ret_pc <- -1;
          frame.dst <- 0;
          depth := 1;
          let regs = ref frame.regs in
          for i = 0 to Array.length args - 1 do
            !regs.(Isa.reg_base + i) <- args.(i)
          done;
          let pc = ref p.Program.funcs.(fidx).Program.entry in
        let result = ref 0 in
        let running = ref true in
        while !running do
          decr fuel;
          if !fuel < 0 then Fault.raise_fault Fault.Fuel_exhausted;
          incr icount;
          let r = !regs in
          let instr = Array.unsafe_get code !pc in
          incr pc;
          (* Every register instruction charges one fuel, so width is
             always 1 here. *)
          (match prof with
          | None -> ()
          | Some pr -> Graft_trace.Opprof.hit pr (Isa.index instr) 1);
          match instr with
          | Isa.Movi (rd, imm) -> r.(rd) <- imm
          | Isa.Mov (rd, rs) -> r.(rd) <- r.(rs)
          | Isa.Bin (kind, op, rd, rs1, rs2) ->
              r.(rd) <- Interp.arith kind op r.(rs1) r.(rs2)
          | Isa.Addi (rd, rs, imm) -> r.(rd) <- r.(rs) + imm
          | Isa.Andi (rd, rs, imm) -> r.(rd) <- r.(rs) land imm
          | Isa.Ori (rd, rs, imm) -> r.(rd) <- r.(rs) lor imm
          | Isa.Cmp (c, rd, rs1, rs2) ->
              r.(rd) <- Interp.compare_vals c r.(rs1) r.(rs2)
          | Isa.Un (Isa.Uneg Ir.Kint, rd, rs) -> r.(rd) <- -r.(rs)
          | Isa.Un (Isa.Uneg Ir.Kword, rd, rs) -> r.(rd) <- Wordops.neg r.(rs)
          | Isa.Un (Isa.Ubnot Ir.Kint, rd, rs) -> r.(rd) <- lnot r.(rs)
          | Isa.Un (Isa.Ubnot Ir.Kword, rd, rs) ->
              r.(rd) <- Wordops.bnot r.(rs)
          | Isa.Un (Isa.Unot, rd, rs) -> r.(rd) <- (if r.(rs) = 0 then 1 else 0)
          | Isa.Un (Isa.Umask, rd, rs) -> r.(rd) <- Wordops.of_int r.(rs)
          | Isa.Un (Isa.Utobool, rd, rs) ->
              r.(rd) <- (if r.(rs) = 0 then 0 else 1)
          | Isa.Ld (rd, rs, off) ->
              let a = r.(rs) + off in
              addr_check Fault.Read a;
              r.(rd) <- Array.unsafe_get cells a
          | Isa.St (rb, rs, off) ->
              let a = r.(rb) + off in
              addr_check Fault.Write a;
              Array.unsafe_set cells a r.(rs)
          | Isa.Br t -> pc := t
          | Isa.Brz (rs, t) -> if r.(rs) = 0 then pc := t
          | Isa.Brnz (rs, t) -> if r.(rs) <> 0 then pc := t
          | Isa.Call { f; dst; argbase; nargs } ->
              let dp = !depth in
              if dp >= max_frames then Fault.raise_fault Fault.Stack_overflow;
              let frame = frames.(dp) in
              frame.ret_pc <- !pc;
              frame.dst <- dst;
              depth := dp + 1;
              let callee = frame.regs in
              for i = 0 to nargs - 1 do
                callee.(Isa.reg_base + i) <- r.(argbase + i)
              done;
              regs := callee;
              pc := p.Program.funcs.(f).Program.entry
          | Isa.Callext { e; dst; argbase; nargs } ->
              let argv = Array.init nargs (fun i -> r.(argbase + i)) in
              r.(dst) <- p.Program.host.(e) argv
          | Isa.Ret rs ->
              let v = r.(rs) in
              decr depth;
              let finished = frames.(!depth) in
              if finished.ret_pc = -1 then begin
                result := v;
                running := false
              end
              else begin
                let caller = frames.(!depth - 1) in
                caller.regs.(finished.dst) <- v;
                regs := caller.regs;
                pc := finished.ret_pc
              end
          | Isa.Halt ->
              Fault.raise_fault (Fault.Illegal_instruction "halt")
        done;
          Ok { value = !result; instructions = !icount }
        with Fault.Fault f ->
          Graft_trace.Trace.instant Graft_trace.Trace.Vm_reg
            ("fault:" ^ Fault.class_name f);
          Error (`Fault f)
      in
      (match prof with
      | None -> ()
      | Some pr -> Graft_trace.Opprof.run_done pr ~fuel:(fuel0 - max 0 !fuel));
      Graft_metrics.inc (m_sessions ());
      Graft_metrics.inc (m_fuel ()) ~by:(fuel0 - max 0 !fuel);
      Graft_trace.Trace.span_end Graft_trace.Trace.Vm_reg "regvm.run" tok;
      outcome)

(** One-shot convenience; resident grafts should keep a session. *)
let run p ~entry ~args ~fuel = run_session (create_session p) ~entry ~args ~fuel
