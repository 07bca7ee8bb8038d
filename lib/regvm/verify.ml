(** Linear-time load-time verifier for sandboxed register code — the
    "linear-time algorithm [that] can be used to guarantee that all
    memory references in a piece of object code have been correctly
    sandboxed" from the paper's section 4.2.

    Invariants enforced for [Write_jump] protection (plus loads for
    [Full]):
    - every store addresses through the dedicated register r1 with
      offset 0;
    - r1 is written only by the canonical masking pair
      [andi r1, rX, size-1] / [ori r1, r1, base] with the segment's
      exact constants;
    - every store (and the [ori]) is immediately preceded by the rest
      of its masking sequence, and no branch lands between the [andi]
      and the memory access — so r1 always holds an in-segment address
      when dereferenced;
    - r0 (hard-wired zero) is never written;
    - every register operand is in range, and all branch and call
      targets are.

    One pass over the code; all checks O(1) per instruction.

    Mask elision ({!Sfi.instrument} with [~elide:true]) relaxes exactly
    one rule: a store (or, under [Full], a load) may skip the masking
    sequence if the {!Flow} interval analysis, run by this verifier
    over the code it is given, proves the access's effective address
    inside the segment. Nothing the instrumenter wrote is believed, so
    a buggy or malicious instrumenter cannot smuggle an unsandboxed
    access past the loader: an access neither masked nor proven fails
    with the masking rule it breaks. *)

module I = Graft_analysis.Interval
module Helpers = Graft_analysis.Helpers
module Loopbound = Graft_analysis.Loopbound
module Ir = Graft_gel.Ir

let verify ?(bounded = false) (p : Program.t) : (unit, string) result =
  let exception Bad of string in
  let bad i fmt =
    Printf.ksprintf
      (fun msg -> raise (Bad (Printf.sprintf "at %d: %s" i msg)))
      fmt
  in
  let code = p.Program.code in
  let n = Array.length code in
  let seg = p.Program.segment in
  let mask = seg.Program.size - 1 in
  let base = seg.Program.base in
  let protected_st =
    p.Program.protection <> Program.Unprotected
  in
  let protected_ld = p.Program.protection = Program.Full in
  (* Instructions that must not be branch targets: the ori completing a
     masking pair and any memory access through r1. *)
  let no_entry = Array.make n false in
  (* Protected accesses not in masked form, with the masking rule each
     breaks, left for {!Flow} to prove in-segment. *)
  let unmasked = ref [] in
  let check_reg i r =
    if r < 0 || r >= Isa.nregs then bad i "register r%d out of range" r
  in
  let check_target i t =
    if t < 0 || t >= n then bad i "branch target %d out of range" t;
    if no_entry.(t) then bad i "branch into a masking sequence at %d" t
  in
  (* A protected access at [i] through [rb]+[off]: in masked form it
     goes through r1 at offset 0 right after a completed masking pair. *)
  let access i what rb off =
    let rule =
      if rb <> Isa.reg_sandbox then
        Some (what ^ " does not address through the sandbox register")
      else if off <> 0 then Some (what ^ " through sandbox register has offset")
      else if
        i = 0
        || (match code.(i - 1) with
           | Isa.Ori (rd, _, b) when rd = Isa.reg_sandbox && b = base -> false
           | _ -> true)
      then Some (what ^ " not preceded by a completed masking pair")
      else None
    in
    match rule with
    | None -> no_entry.(i) <- true
    | Some rule -> unmasked := (i, rb, off, rule) :: !unmasked
  in
  try
    (* Helper-signature discipline (shared with every other tier): an
       extern named like a typed helper must carry the table's arity. *)
    if Array.length p.Program.ext_names <> Array.length p.Program.ext_arity
    then
      raise (Bad "extern name table does not match the arity table");
    Array.iteri
      (fun e name ->
        match Helpers.find name with
        | Some s when p.Program.ext_arity.(e) <> s.Helpers.h_arity ->
            raise
              (Bad
                 (Printf.sprintf
                    "extern %d (%s): arity %d does not match helper \
                     signature %d"
                    e name p.Program.ext_arity.(e) s.Helpers.h_arity))
        | _ -> ())
      p.Program.ext_names;
    (* Pass 1: structural checks, dedicated-register discipline, and
       no-entry marking. *)
    for i = 0 to n - 1 do
      let instr = code.(i) in
      (* Every register the instruction reads. *)
      (match instr with
      | Isa.Movi _ | Isa.Br _ | Isa.Halt -> ()
      | Isa.Mov (_, r) | Isa.Addi (_, r, _) | Isa.Andi (_, r, _)
      | Isa.Ori (_, r, _) | Isa.Un (_, _, r) | Isa.Ld (_, r, _)
      | Isa.Brz (r, _) | Isa.Brnz (r, _) | Isa.Ret r
      | Isa.Call { argbase = r; _ } | Isa.Callext { argbase = r; _ } ->
          check_reg i r
      | Isa.Bin (_, _, _, a, b) | Isa.Cmp (_, _, a, b) | Isa.St (a, b, _) ->
          check_reg i a;
          check_reg i b);
      List.iter
        (fun r ->
          check_reg i r;
          if r = Isa.reg_zero then bad i "write to hard-wired zero register";
          if r = Isa.reg_sandbox then
            match instr with
            | Isa.Andi (rd, _, m) when rd = Isa.reg_sandbox ->
                if not protected_st then
                  bad i "sandbox register used without protection"
                else if m <> mask then
                  bad i "andi with wrong mask 0x%x (segment mask 0x%x)" m mask
            | Isa.Ori (rd, rs, b) when rd = Isa.reg_sandbox ->
                if rs <> Isa.reg_sandbox then
                  bad i "ori source must be the sandbox register";
                if b <> base then
                  bad i "ori with wrong base 0x%x (segment base 0x%x)" b base;
                (* The ori must complete an andi pair. *)
                if i = 0
                   || (match code.(i - 1) with
                      | Isa.Andi (rd', _, m')
                        when rd' = Isa.reg_sandbox && m' = mask ->
                          false
                      | _ -> true)
                then bad i "ori not preceded by the masking andi";
                no_entry.(i) <- true
            | _ -> bad i "non-masking write to the sandbox register")
        (Isa.writes instr);
      (match instr with
      | Isa.St (rb, _, off) -> if protected_st then access i "store" rb off
      | Isa.Ld (_, rs, off) -> if protected_ld then access i "load" rs off
      | Isa.Call { f; argbase; nargs; _ } ->
          if f < 0 || f >= Array.length p.Program.funcs then
            bad i "call to invalid function %d" f;
          if nargs <> p.Program.funcs.(f).Program.nargs then
            bad i "call with %d args to function expecting %d" nargs
              p.Program.funcs.(f).Program.nargs;
          if argbase + nargs > Isa.nregs || Isa.reg_base + nargs > Isa.nregs
          then bad i "argument block overflows"
      | Isa.Callext { e; argbase; nargs; _ } ->
          if e < 0 || e >= Array.length p.Program.host then
            bad i "call to invalid extern %d" e;
          if nargs <> p.Program.ext_arity.(e) then
            bad i "extern call arity mismatch";
          if argbase + nargs > Isa.nregs then bad i "argument block overflows"
      | _ -> ())
    done;
    (* Pass 2: branch targets (needs completed no_entry map). *)
    for i = 0 to n - 1 do
      match code.(i) with
      | Isa.Br t | Isa.Brz (_, t) | Isa.Brnz (_, t) -> check_target i t
      | _ -> ()
    done;
    (* Function extents. *)
    Array.iteri
      (fun fi (f : Program.funcdesc) ->
        if f.Program.entry < 0 || f.Program.entry > f.Program.code_end
           || f.Program.code_end > n then
          raise
            (Bad (Printf.sprintf "function %d (%s): bad code extent" fi
                    f.Program.name)))
      p.Program.funcs;
    (* Pass 3 (only when some access is unmasked): run the interval
       analysis over this code and admit each unmasked access only if
       its derived address lies in the segment. An access no path
       reaches is never elided, so it is refused too. *)
    if !unmasked <> [] then begin
      let flow = Flow.analyze code p.Program.funcs in
      let seg_iv = I.range base (base + seg.Program.size - 1) in
      List.iter
        (fun (i, rb, off, rule) ->
          let addr = Flow.address flow i rb off in
          if I.is_bot addr || not (I.leq addr seg_iv) then bad i "%s" rule)
        (List.rev !unmasked)
    end;
    (* Graftgate mode: every backward branch must be the backedge of a
       canonical counted loop whose trip count the verifier derives
       from the instruction windows the compiler emits — the machine-
       level half of the loop-bound check (the IR-level half is
       {!Graft_analysis.Loopbound.gate}, run by the loader). *)
    if bounded then begin
      let target j =
        match code.(j) with
        | Isa.Br u | Isa.Brz (_, u) | Isa.Brnz (_, u) -> Some u
        | _ -> None
      in
      let entries =
        Array.to_list
          (Array.map
             (fun (f : Program.funcdesc) -> (f.Program.name, f.Program.entry))
             p.Program.funcs)
      in
      for b = 0 to n - 1 do
        match code.(b) with
        | (Isa.Brz (_, t) | Isa.Brnz (_, t)) when t <= b ->
            bad b "conditional backward branch (%s) is never certified"
              (Isa.to_string code.(b))
        | Isa.Br t when t <= b ->
            let fail fmt =
              Printf.ksprintf
                (fun m ->
                  bad b "backward branch (%s): %s" (Isa.to_string code.(b)) m)
                fmt
            in
            if t < 2 || b < t + 6 then
              fail "no room for a counted-loop window";
            (* Head: [movi rk, LIMIT; cmp rc, ri, rk; brz rc, exit]. *)
            let ri, limit, cmp =
              match (code.(t), code.(t + 1), code.(t + 2)) with
              | ( Isa.Movi (rk, limit),
                  Isa.Cmp (((Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge) as cmp), rc, ri, rk'),
                  Isa.Brz (rc', e) )
                when rk' = rk && rc' = rc ->
                  if e <= b then fail "loop exit does not leave the loop";
                  (ri, limit, cmp)
              | _ -> fail "loop head is not the canonical counted test"
            in
            if ri < Isa.reg_base then
              fail "loop counter r%d is not a local register" ri;
            (* Initialiser immediately above the head. *)
            let init =
              match (code.(t - 2), code.(t - 1)) with
              | Isa.Movi (rI, v), Isa.Mov (ri', rI') when ri' = ri && rI' = rI
                ->
                  v
              | _ -> fail "loop counter has no constant initialiser"
            in
            (* Step: [movi rA, STEP; add/sub rA, ri, rA; mov ri, rA]. *)
            let op, step =
              match (code.(b - 3), code.(b - 2), code.(b - 1)) with
              | ( Isa.Movi (ra, s),
                  Isa.Bin (Ir.Kint, ((Ir.Add | Ir.Sub) as op), ra', ri', ra''),
                  Isa.Mov (ri'', ra''') )
                when ra' = ra && ra'' = ra && ra''' = ra && ri' = ri
                     && ri'' = ri ->
                  (op, s)
              | _ -> fail "loop step is not a single constant counter bump"
            in
            (match (cmp, op) with
            | (Ir.Lt | Ir.Le), Ir.Add | (Ir.Gt | Ir.Ge), Ir.Sub -> ()
            | _ ->
                fail "loop step does not advance the counter toward the limit");
            if step < 1 then fail "loop step %d is not positive" step;
            (* The step's final mov must be the only write to the
               counter anywhere in the loop. *)
            for j = t to b do
              if j <> b - 1 && List.mem ri (Isa.writes code.(j)) then
                fail "counter r%d is also written at %d (%s)" ri j
                  (Isa.to_string code.(j))
            done;
            Option.iter
              (fun m -> raise (Bad m))
              (Loopbound.entry_fault ~target ~ncode:n ~entries ~init:(t - 2)
                 ~back:b ~step_len:3);
            if Loopbound.trips ~init ~limit ~cmp ~step = None then
              fail "trip count exceeds %d or diverges" Loopbound.max_trip
        | _ -> ()
      done
    end;
    Ok ()
  with Bad msg -> Error msg
