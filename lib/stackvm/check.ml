(** The engine behind [graftkit check]: source-anchored diagnostics
    read from the stack verifier's own analysis of the compiled graft.

    {!run} compiles located IR ([Typecheck.check_program_located]) to
    fully checked bytecode and runs the verifier's passes 1 and 2 over
    it once ({!Verify.derive}), the same passes that decide the static
    tier's elisions. From what they derived it reports:
    - [oob]: a checked array access whose derived index interval is
      non-empty and disjoint from the array's bounds;
    - [divzero]: a division whose derived divisor interval is exactly
      [{0}];
    - [unreachable]: within a function, in pc order, the first
      statement that pass 2 never reaches after one it does;
    - a program pass 1 rejects: one [verify] diagnostic carrying the
      verifier's message (no bytecode tier loads it), at the pc pass 1
      failed at.
    A site takes the position of the last statement starting at or
    before its pc. Unused locals and functions are syntactic lints over
    the IR. *)

open Graft_gel
module I = Graft_analysis.Interval

type diag = { dpos : Srcloc.pos; dkind : string; dmsg : string }

(* Link without a kernel: each shared array gets cells at its declared
   size, and each extern a stub. Check never runs the program. *)
let link_alone (prog : Ir.program) =
  let module M = Graft_mem.Memory in
  let shared =
    List.filter (fun (a : Ir.arr) -> a.Ir.ashared) (Array.to_list prog.Ir.arrays)
  in
  let cells = List.fold_left (fun n (a : Ir.arr) -> n + a.Ir.asize) 0 shared in
  let mem = M.create (Link.footprint prog + cells + 16) in
  let shared =
    List.map
      (fun (a : Ir.arr) ->
        (a.Ir.aname, M.alloc mem ~name:a.Ir.aname ~len:a.Ir.asize ~perm:M.perm_rw))
      shared
  in
  let hosts =
    Array.to_list
      (Array.map
         (fun (e : Ir.ext) ->
           {
             Link.hname = e.Ir.ename;
             hfn = (fun _ _ -> invalid_arg "graftkit check runs no graft");
           })
         prog.Ir.externs)
  in
  Link.link prog ~mem ~shared ~hosts

(* The oob, divzero and unreachable diagnostics of a compiled program,
   latest pc first. [starts] is each statement's first pc and position,
   in pc order. *)
let derived_diags_rev (prog : Ir.program) (p : Program.t) starts
    (d : Verify.derived) =
  let out = ref [] in
  let emit dpos dkind fmt =
    Printf.ksprintf (fun dmsg -> out := { dpos; dkind; dmsg } :: !out) fmt
  in
  let next = ref 0 and pos = ref Srcloc.pos0 in
  Array.iter
    (fun (f : Program.funcdesc) ->
      let after_reached = ref false in
      for pc = f.Program.entry to f.Program.code_end - 1 do
        while !next < Array.length starts && fst starts.(!next) = pc do
          pos := snd starts.(!next);
          incr next;
          if d.Verify.reached.(pc) then after_reached := true
          else if !after_reached then begin
            after_reached := false;
            emit !pos "unreachable" "unreachable code"
          end
        done;
        let iv = d.Verify.operands.(pc) in
        if not (I.is_bot iv) then
          match p.Program.code.(pc) with
          | Opcode.Aload a | Opcode.Astore a ->
              let len = p.Program.arrays.(a).Program.len in
              if I.is_bot (I.meet iv (I.range 0 (len - 1))) then
                emit !pos "oob"
                  "index of array '%s' is provably out of bounds: %s is \
                   outside [0,%d]"
                  prog.Ir.arrays.(a).Ir.aname (I.to_string iv) (len - 1)
          | (Opcode.Div | Opcode.Mod) when I.equal iv (I.const 0) ->
              emit !pos "divzero" "division by zero: the divisor is always 0"
          | _ -> ()
      done)
    p.Program.funcs;
  !out

let rec expr_reads acc (e : Ir.expr) =
  match e with
  | Ir.Local n -> acc.(n) <- true
  | Ir.Const _ | Ir.Global _ -> ()
  | Ir.Load (_, i) -> expr_reads acc i
  | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
      expr_reads acc a;
      expr_reads acc b
  | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
      expr_reads acc a
  | Ir.Call (_, args) | Ir.CallExt (_, args) -> Array.iter (expr_reads acc) args

let rec stmt_reads acc (s : Ir.stmt) =
  match s with
  | Ir.At (_, s) -> stmt_reads acc s
  | Ir.Set_local (_, e) | Ir.Set_global (_, e) | Ir.Eval e -> expr_reads acc e
  | Ir.Store (_, i, v) ->
      expr_reads acc i;
      expr_reads acc v
  | Ir.If (c, t, f) ->
      expr_reads acc c;
      List.iter (stmt_reads acc) t;
      List.iter (stmt_reads acc) f
  | Ir.While (c, b, s) ->
      expr_reads acc c;
      List.iter (stmt_reads acc) b;
      List.iter (stmt_reads acc) s
  | Ir.Return (Some e) -> expr_reads acc e
  | Ir.Return None | Ir.Break | Ir.Continue -> ()

let rec stmt_calls acc (s : Ir.stmt) =
  let rec e_calls (e : Ir.expr) =
    match e with
    | Ir.Call (f, args) ->
        acc.(f) <- true;
        Array.iter e_calls args
    | Ir.CallExt (_, args) -> Array.iter e_calls args
    | Ir.Load (_, i) -> e_calls i
    | Ir.Arith (_, _, a, b) | Ir.Cmp (_, a, b) | Ir.And (a, b) | Ir.Or (a, b) ->
        e_calls a;
        e_calls b
    | Ir.Not a | Ir.Bnot (_, a) | Ir.Neg (_, a) | Ir.ToWord a | Ir.ToBool a ->
        e_calls a
    | Ir.Const _ | Ir.Local _ | Ir.Global _ -> ()
  in
  match s with
  | Ir.At (_, s) -> stmt_calls acc s
  | Ir.Set_local (_, e) | Ir.Set_global (_, e) | Ir.Eval e -> e_calls e
  | Ir.Store (_, i, v) ->
      e_calls i;
      e_calls v
  | Ir.If (c, t, f) ->
      e_calls c;
      List.iter (stmt_calls acc) t;
      List.iter (stmt_calls acc) f
  | Ir.While (c, b, st) ->
      e_calls c;
      List.iter (stmt_calls acc) b;
      List.iter (stmt_calls acc) st
  | Ir.Return (Some e) -> e_calls e
  | Ir.Return None | Ir.Break | Ir.Continue -> ()

(** Diagnose a located program ([Typecheck.check_program_located]
    output). Array bounds come from the declarations. [entries], when
    given, names the graft's entry points and enables the
    unused-function check (reachability over the call graph from those
    roots). *)
let run ?entries (prog : Ir.program) (meta : Typecheck.program_meta) :
    diag list =
  let verify_diag dpos msg =
    { dpos; dkind = "verify"; dmsg = "the bytecode verifier rejects the graft: " ^ msg }
  in
  let diags_rev =
    ref
      (match link_alone prog with
      | Error msg -> [ verify_diag Srcloc.pos0 msg ]
      | Ok image -> (
          let p, starts = Compile.compile_located image in
          match Verify.derive p with
          | Ok d -> derived_diags_rev prog p starts d
          | Error (at, msg) ->
              (* The last statement starting at or before the failing pc. *)
              let pos =
                match at with
                | None -> Srcloc.pos0
                | Some pc ->
                    Array.fold_left
                      (fun pos (start, spos) -> if start <= pc then spos else pos)
                      Srcloc.pos0 starts
              in
              [ verify_diag pos msg ]))
  in
  (* Unused locals (parameters excluded). *)
  Array.iteri
    (fun i (f : Ir.func) ->
      let fm = meta.Typecheck.fmeta.(i) in
      let reads = Array.make (max 1 f.Ir.nlocals) false in
      List.iter (stmt_reads reads) f.Ir.body;
      Array.iteri
        (fun slot (name, pos) ->
          if slot >= fm.Typecheck.mnargs && not reads.(slot) && name <> "" then
            diags_rev :=
              {
                dpos = pos;
                dkind = "unused-local";
                dmsg =
                  Printf.sprintf "local '%s' of function '%s' is never read"
                    name f.Ir.fname;
              }
              :: !diags_rev)
        fm.Typecheck.mlocals)
    prog.Ir.funcs;
  (* Unused functions, relative to the declared entry points. *)
  (match entries with
  | None -> ()
  | Some roots ->
      let n = Array.length prog.Ir.funcs in
      let reach = Array.make n false in
      let calls = Array.make n [] in
      Array.iteri
        (fun i (f : Ir.func) ->
          let acc = Array.make n false in
          List.iter (stmt_calls acc) f.Ir.body;
          let out = ref [] in
          Array.iteri (fun j c -> if c then out := j :: !out) acc;
          calls.(i) <- !out)
        prog.Ir.funcs;
      let rec visit i =
        if not reach.(i) then begin
          reach.(i) <- true;
          List.iter visit calls.(i)
        end
      in
      List.iter
        (fun name ->
          match Ir.find_func prog name with Some i -> visit i | None -> ())
        roots;
      Array.iteri
        (fun i (f : Ir.func) ->
          if not reach.(i) then
            diags_rev :=
              {
                dpos = meta.Typecheck.fmeta.(i).Typecheck.mfpos;
                dkind = "unused-fn";
                dmsg =
                  Printf.sprintf
                    "function '%s' is unreachable from the entry points"
                    f.Ir.fname;
              }
              :: !diags_rev)
        prog.Ir.funcs);
  (* Stable order: by source position, then kind. *)
  List.sort
    (fun a b ->
      compare
        (a.dpos.Srcloc.line, a.dpos.Srcloc.col, a.dkind)
        (b.dpos.Srcloc.line, b.dpos.Srcloc.col, b.dkind))
    (List.rev !diags_rev)
