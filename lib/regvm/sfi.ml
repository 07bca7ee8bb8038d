(** The software-fault-isolation rewriting pass (sandboxing), after
    Wahbe et al. [WAHBE93] as productized by Omniware [COLU95].

    Every store — and in [Full] mode every load — is rewritten to go
    through the dedicated sandbox register r1:

    {v
        st [rb+off], rs          addi r2, rb, off
                          ==>    andi r1, r2, size-1
                                 ori  r1, r1, base
                                 st  [r1+0], rs
    v}

    Because [base] is aligned to the power-of-two [size], the and/or
    pair maps any address into the segment. A graft can therefore at
    worst overwrite its own data — the paper's definition of
    sandboxing — at a cost of three extra ALU instructions per store.

    The pass remaps all branch targets and function entry points. With
    [~elide:true] it leaves unmasked the accesses whose address {!Flow}
    proves in-segment; it records nothing about them, since {!Verify}
    proves each unmasked access again from the instrumented code. *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** Treat an entire graft memory as one sandbox segment. Requires a
    power-of-two cell count. *)
let segment_of_memory mem =
  let size = Graft_mem.Memory.size mem in
  if not (is_pow2 size) then
    invalid_arg "Sfi.segment_of_memory: memory size must be a power of two";
  { Program.base = 0; size }

module I = Graft_analysis.Interval

let instrument ?(elide = false) (p : Program.t)
    ~(protection : Program.protection) : Program.t =
  match protection with
  | Program.Unprotected -> { p with Program.protection }
  | Program.Write_jump | Program.Full ->
      let seg = p.Program.segment in
      if not (is_pow2 seg.Program.size) then
        invalid_arg "Sfi.instrument: segment size must be a power of two";
      if seg.Program.base land (seg.Program.size - 1) <> 0 then
        invalid_arg "Sfi.instrument: segment base must be size-aligned";
      let mask = seg.Program.size - 1 in
      let base = seg.Program.base in
      let full = protection = Program.Full in
      (* Mask elision: an access whose effective address provably lies
         inside the segment behaves identically masked or not (for a
         size-aligned segment the and/or pair is the identity on
         in-segment addresses), so the triple is pure overhead. *)
      let flow =
        if elide then Flow.analyze p.Program.code p.Program.funcs else [||]
      in
      let seg_iv = I.range base (base + seg.Program.size - 1) in
      let provable i r off =
        elide
        &&
        let addr = Flow.address flow i r off in
        (not (I.is_bot addr)) && I.leq addr seg_iv
      in
      let expand i instr =
        match instr with
        | Isa.St (rb, _, off) -> if provable i rb off then 1 else 4
        | Isa.Ld (_, rs, off) when full -> if provable i rs off then 1 else 4
        | _ -> 1
      in
      let n = Array.length p.Program.code in
      (* Old index -> new index. *)
      let remap = Array.make (n + 1) 0 in
      let total = ref 0 in
      for i = 0 to n - 1 do
        remap.(i) <- !total;
        total := !total + expand i p.Program.code.(i)
      done;
      remap.(n) <- !total;
      let out = Array.make !total Isa.Halt in
      let pos = ref 0 in
      let put instr =
        out.(!pos) <- instr;
        incr pos
      in
      let sandbox rb off =
        put (Isa.Addi (Isa.reg_scratch, rb, off));
        put (Isa.Andi (Isa.reg_sandbox, Isa.reg_scratch, mask));
        put (Isa.Ori (Isa.reg_sandbox, Isa.reg_sandbox, base))
      in
      Array.iteri
        (fun i instr ->
          match instr with
          | Isa.St (rb, _, off) when provable i rb off -> put instr
          | Isa.St (rb, rs, off) ->
              sandbox rb off;
              put (Isa.St (Isa.reg_sandbox, rs, 0))
          | Isa.Ld (_, rs, off) when full && provable i rs off -> put instr
          | Isa.Ld (rd, rs, off) when full ->
              sandbox rs off;
              put (Isa.Ld (rd, Isa.reg_sandbox, 0))
          | Isa.Br t -> put (Isa.Br remap.(t))
          | Isa.Brz (r, t) -> put (Isa.Brz (r, remap.(t)))
          | Isa.Brnz (r, t) -> put (Isa.Brnz (r, remap.(t)))
          | other -> put other)
        p.Program.code;
      let funcs =
        Array.map
          (fun (f : Program.funcdesc) ->
            {
              f with
              Program.entry = remap.(f.Program.entry);
              code_end = remap.(f.Program.code_end);
            })
          p.Program.funcs
      in
      { p with Program.code = out; funcs; protection }
