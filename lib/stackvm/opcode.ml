(** Instruction set of the stack bytecode VM, the paper's "Java"
    technology: a compact stack machine executed by a software
    interpreter, with a load-time verifier.

    All values are integers; word (unsigned 32-bit) operations have
    dedicated opcodes that re-mask their result, preserving the
    invariant that word values stay in [0, 2^32). Array opcodes carry
    the array id; bases, lengths and writability live in the program's
    array table so the verifier can reason about them.

    The tail of the ISA is a set of {e superinstructions}: fused forms
    of the dispatch pairs that dominate the MD5 and eviction grafts
    (constant operands, constant-index array loads, compare-then-branch
    and loop-counter increments). They are produced only by the
    {!Peephole} pass — the compiler never emits them — and each one
    charges fuel equal to the number of plain instructions it replaces
    ({!width}), so optimized and unoptimized bytecode share one fuel
    budget and exhaust it at the same points. *)

(** Binary operators available in fused form with a constant or local
    operand. [KDiv]/[KMod] may only appear with a non-zero constant
    divisor (the peephole never fuses [Const 0; Div], and the verifier
    rejects them in the local-operand forms), so {!Vm.bink_fn} can
    never divide by zero in verified code. *)
type bink =
  | KAdd | KSub | KMul
  | KDiv | KMod
  | KShl | KShr | KLshr
  | KBand | KBor | KBxor
  | KWadd | KWsub | KWmul | KWshl | KWshr

(** Comparison selector shared by the fused compare and
    compare-then-branch forms. *)
type cmp = Clt | Cle | Cgt | Cge | Ceq | Cne

type t =
  | Const of int
  | Load_local of int
  | Store_local of int
  | Load_global of int  (** absolute cell address *)
  | Store_global of int
  | Aload of int  (** array id; pops index, pushes value *)
  | Astore of int  (** array id; pops value then index *)
  (* Unchecked variants, put in by the verifier's own elision pass
     where its interval analysis proves the check redundant. The
     load-time verifier admits one only where it proves the same from
     the code (see [Verify]); the interpreter runs them with no bounds
     or zero test at all. *)
  | Aload_u of int
  | Astore_u of int
  (* int arithmetic *)
  | Add | Sub | Mul | Div | Mod
  | Div_u | Mod_u  (** unchecked: divisor proven non-zero *)
  | Shl | Shr | Lshr
  | Band | Bor | Bxor | Bnot | Neg
  (* word (32-bit wrapping) variants *)
  | Wadd | Wsub | Wmul
  | Wshl | Wshr
  | Wbnot | Wneg
  | Wmask  (** int -> word cast *)
  (* comparisons: push 0/1 *)
  | Lt | Le | Gt | Ge | Eq | Ne
  | Tobool  (** v <> 0 -> 1 | 0 *)
  | Not  (** boolean negation *)
  (* control *)
  | Jmp of int
  | Jz of int  (** jump when popped value = 0 *)
  | Jnz of int
  | Call of int  (** function index; pops the callee's args *)
  | Callext of int  (** extern index *)
  | Ret  (** pops return value, pops frame *)
  | Pop
  | Dup
  | Halt  (** only reachable on compiler bugs; faults *)
  (* fused superinstructions (see Peephole) *)
  | Bink of bink * int  (** [Const k; op] — tos OP k *)
  | Cmpk of cmp * int  (** [Const k; cmp] — push (tos CMP k) *)
  | Jcmp of cmp * bool * int
      (** [cmp; Jz/Jnz t] — pop b, a; jump to t when (a CMP b) = flag *)
  | Jcmpk of cmp * int * bool * int
      (** [Const k; cmp; Jz/Jnz t] — pop a; jump when (a CMP k) = flag *)
  | Aload_k of int * int  (** [Const k; Aload a] — constant-index load *)
  | Local_addk of int * int
      (** [Load_local n; Const k; Add; Store_local n] — local n += k *)
  | Load_local2 of int * int  (** [Load_local a; Load_local b] *)
  | Bin_local of bink * int
      (** [Load_local n; op] — tos OP local n (never div/mod: a local
          divisor could be zero and must keep the plain fault path) *)
  | Bin_local2 of bink * int * int
      (** [Load_local a; Load_local b; op] — push (local a OP local b) *)
  | Aload_local of int * int
      (** [Load_local n; Aload a] — push a\[local n\] *)
  | Move_local of int * int
      (** [Load_local src; Store_local dst] — local dst <- local src *)
  | Jcmpk_local of cmp * int * int * bool * int
      (** [Load_local n; Const k; cmp; Jz/Jnz t] — the loop-closing
          test; jump to t when (local n CMP k) = flag *)
  | Store_localk of int * int
      (** [Const k; Store_local n] — local n <- k *)
  | Bin_store of bink * int
      (** [op; Store_local n] — pop b, a; local n <- a OP b (never
          div/mod: the popped divisor could be zero) *)
  | Bink_store of bink * int * int
      (** [Const k; op; Store_local n] — local n <- tos OP k *)
  | Bink_local of bink * int * int
      (** [Load_local n; Const k; op] — push (local n OP k) *)
  | Bin_aload_local of bink * int * int
      (** [Load_local n; Aload a; op] — tos OP a\[local n\] (never
          div/mod: the loaded divisor could be zero) *)
  | Aload_local_store of int * int * int
      (** [Load_local n; Aload a; Store_local dst] — a, n, dst:
          local dst <- a\[local n\] *)
  | Move_local2 of int * int * int * int
      (** two adjacent local moves, the shape variable-rotation code
          leaves behind — d1 <- s1 then d2 <- s2, in that order *)

(** Number of plain instructions a (possibly fused) instruction stands
    for; this is also its fuel cost, so fused code exhausts the same
    fuel budget at the same program points as its unfused source. *)
let width = function
  | Bink _ | Cmpk _ | Jcmp _ | Aload_k _ | Load_local2 _
  | Bin_local _ | Aload_local _ | Move_local _ | Store_localk _
  | Bin_store _ ->
      2
  | Jcmpk _ | Bin_local2 _ | Bink_store _ | Bink_local _ | Bin_aload_local _
  | Aload_local_store _ ->
      3
  | Local_addk _ | Jcmpk_local _ | Move_local2 _ -> 4
  | _ -> 1

(** Can this operator fault on a zero right operand? Such operators may
    be fused only with a non-zero constant, never with a local. *)
let bink_divlike = function KDiv | KMod -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Opcode facts. Each is matched here once, and every pass that needs  *)
(* one reads it from here: the compiler, the peephole pass, the        *)
(* verifier's three passes, the elision counter and the JIT.           *)
(* ------------------------------------------------------------------ *)

(** Jump target of a plain or fused branch; [None] for every other
    instruction. *)
let target = function
  | Jmp t | Jz t | Jnz t | Jcmp (_, _, t) | Jcmpk (_, _, _, t)
  | Jcmpk_local (_, _, _, _, t) ->
      Some t
  | _ -> None

(** [map_target f op] moves [op]'s jump target [t] to [f t]; an
    instruction without a target comes back unchanged. *)
let map_target f = function
  | Jmp t -> Jmp (f t)
  | Jz t -> Jz (f t)
  | Jnz t -> Jnz (f t)
  | Jcmp (c, flag, t) -> Jcmp (c, flag, f t)
  | Jcmpk (c, k, flag, t) -> Jcmpk (c, k, flag, f t)
  | Jcmpk_local (c, n, k, flag, t) -> Jcmpk_local (c, n, k, flag, f t)
  | op -> op

(** Operator selector of a plain binary opcode (the checked [Div] and
    [Mod] included); [None] for every other instruction. *)
let binop = function
  | Add -> Some KAdd | Sub -> Some KSub | Mul -> Some KMul
  | Div -> Some KDiv | Mod -> Some KMod
  | Shl -> Some KShl | Shr -> Some KShr | Lshr -> Some KLshr
  | Band -> Some KBand | Bor -> Some KBor | Bxor -> Some KBxor
  | Wadd -> Some KWadd | Wsub -> Some KWsub | Wmul -> Some KWmul
  | Wshl -> Some KWshl | Wshr -> Some KWshr
  | _ -> None

(** {!binop} without the operators that fault on a zero right operand:
    the ones that may fuse with a run-time (local or stack) operand. *)
let total_binop op =
  match binop op with Some b when not (bink_divlike b) -> Some b | _ -> None

(** Comparison selector of a plain comparison opcode. *)
let cmpop = function
  | Lt -> Some Clt | Le -> Some Cle | Gt -> Some Cgt
  | Ge -> Some Cge | Eq -> Some Ceq | Ne -> Some Cne
  | _ -> None

(** The (checked, unchecked) forms of a check site, given either one.
    These four pairs are the only instructions the static tier chooses
    between. *)
let check_site = function
  | Aload a | Aload_u a -> Some (Aload a, Aload_u a)
  | Astore a | Astore_u a -> Some (Astore a, Astore_u a)
  | Div | Div_u -> Some (Div, Div_u)
  | Mod | Mod_u -> Some (Mod, Mod_u)
  | _ -> None

(** The other form of a check site: [Aload a] <-> [Aload_u a], ... *)
let twin op = Option.map (fun (c, u) -> if op = c then u else c) (check_site op)

(** A check-elided instruction, admitted only where the verifier
    proves its operand legal. *)
let is_unchecked op =
  match check_site op with Some (_, u) -> op = u | None -> false

(** Every local an instruction names, in operand order. *)
let locals = function
  | Load_local n | Store_local n | Local_addk (n, _) | Bin_local (_, n)
  | Jcmpk_local (_, n, _, _, _) | Store_localk (n, _) | Bin_store (_, n)
  | Bink_store (_, _, n) | Bink_local (_, n, _) | Aload_local (_, n)
  | Bin_aload_local (_, _, n) ->
      [ n ]
  | Load_local2 (a, b) | Bin_local2 (_, a, b) | Move_local (a, b)
  | Aload_local_store (_, a, b) ->
      [ a; b ]
  | Move_local2 (d1, s1, d2, s2) -> [ d1; s1; d2; s2 ]
  | _ -> []

(** The locals an instruction writes. *)
let writes = function
  | Store_local n | Local_addk (n, _) | Move_local (n, _) | Store_localk (n, _)
  | Bin_store (_, n) | Bink_store (_, _, n) | Aload_local_store (_, _, n) ->
      [ n ]
  | Move_local2 (d1, _, d2, _) -> [ d1; d2 ]
  | _ -> []

(** Stack effect (pops, pushes), with call effects resolved by the
    caller since they depend on the function table. *)
let effect = function
  | Const _ | Load_local _ | Load_global _ -> (0, 1)
  | Store_local _ | Store_global _ -> (1, 0)
  | Aload _ | Aload_u _ -> (1, 1)
  | Astore _ | Astore_u _ -> (2, 0)
  | Add | Sub | Mul | Div | Mod | Div_u | Mod_u
  | Shl | Shr | Lshr | Band | Bor | Bxor
  | Wadd | Wsub | Wmul | Wshl | Wshr
  | Lt | Le | Gt | Ge | Eq | Ne ->
      (2, 1)
  | Bnot | Neg | Wbnot | Wneg | Wmask | Tobool | Not -> (1, 1)
  | Jmp _ -> (0, 0)
  | Jz _ | Jnz _ -> (1, 0)
  | Call _ | Callext _ -> (0, 0) (* resolved by caller *)
  | Ret -> (1, 0)
  | Pop -> (1, 0)
  | Dup -> (1, 2)
  | Halt -> (0, 0)
  | Bink _ | Cmpk _ -> (1, 1)
  | Jcmp _ -> (2, 0)
  | Jcmpk _ -> (1, 0)
  | Aload_k _ -> (0, 1)
  | Local_addk _ -> (0, 0)
  | Load_local2 _ -> (0, 2)
  | Bin_local _ -> (1, 1)
  | Bin_local2 _ | Aload_local _ -> (0, 1)
  | Move_local _ | Jcmpk_local _ | Store_localk _ | Aload_local_store _
  | Move_local2 _ ->
      (0, 0)
  | Bin_store _ -> (2, 0)
  | Bink_store _ -> (1, 0)
  | Bink_local _ -> (0, 1)
  | Bin_aload_local _ -> (1, 1)

(* ------------------------------------------------------------------ *)
(* Opcode classes for the profiler.                                    *)
(* ------------------------------------------------------------------ *)

(** Dense opcode-class index (operands ignored), for profiler counter
    arrays; indexes {!class_names}. *)
let index = function
  | Const _ -> 0
  | Load_local _ -> 1
  | Store_local _ -> 2
  | Load_global _ -> 3
  | Store_global _ -> 4
  | Aload _ -> 5
  | Astore _ -> 6
  | Aload_u _ -> 7
  | Astore_u _ -> 8
  | Add -> 9 | Sub -> 10 | Mul -> 11 | Div -> 12 | Mod -> 13
  | Div_u -> 14 | Mod_u -> 15
  | Shl -> 16 | Shr -> 17 | Lshr -> 18
  | Band -> 19 | Bor -> 20 | Bxor -> 21 | Bnot -> 22 | Neg -> 23
  | Wadd -> 24 | Wsub -> 25 | Wmul -> 26
  | Wshl -> 27 | Wshr -> 28
  | Wbnot -> 29 | Wneg -> 30 | Wmask -> 31
  | Lt -> 32 | Le -> 33 | Gt -> 34 | Ge -> 35 | Eq -> 36 | Ne -> 37
  | Tobool -> 38 | Not -> 39
  | Jmp _ -> 40
  | Jz _ -> 41
  | Jnz _ -> 42
  | Call _ -> 43
  | Callext _ -> 44
  | Ret -> 45
  | Pop -> 46
  | Dup -> 47
  | Halt -> 48
  | Bink _ -> 49
  | Cmpk _ -> 50
  | Jcmp _ -> 51
  | Jcmpk _ -> 52
  | Aload_k _ -> 53
  | Local_addk _ -> 54
  | Load_local2 _ -> 55
  | Bin_local _ -> 56
  | Bin_local2 _ -> 57
  | Aload_local _ -> 58
  | Move_local _ -> 59
  | Jcmpk_local _ -> 60
  | Store_localk _ -> 61
  | Bin_store _ -> 62
  | Bink_store _ -> 63
  | Bink_local _ -> 64
  | Bin_aload_local _ -> 65
  | Aload_local_store _ -> 66
  | Move_local2 _ -> 67

(** One display name per {!index} slot. *)
let class_names =
  [|
    "const"; "lload"; "lstore"; "gload"; "gstore";
    "aload"; "astore"; "aload.u"; "astore.u";
    "add"; "sub"; "mul"; "div"; "mod"; "div.u"; "mod.u";
    "shl"; "shr"; "lshr"; "band"; "bor"; "bxor"; "bnot"; "neg";
    "wadd"; "wsub"; "wmul"; "wshl"; "wshr"; "wbnot"; "wneg"; "wmask";
    "lt"; "le"; "gt"; "ge"; "eq"; "ne"; "tobool"; "not";
    "jmp"; "jz"; "jnz"; "call"; "callext"; "ret"; "pop"; "dup"; "halt";
    "bin.k"; "cmp.k"; "jcmp"; "jcmp.k"; "aload.k"; "laddk"; "lload2";
    "bin.l"; "bin.ll"; "aload.l"; "lmove"; "jcmp.lk"; "lstore.k";
    "bin.st"; "bin.kst"; "bin.lk"; "bin.al"; "aload.lst"; "lmove2";
  |]

let bink_name = function
  | KAdd -> "add" | KSub -> "sub" | KMul -> "mul"
  | KDiv -> "div" | KMod -> "mod"
  | KShl -> "shl" | KShr -> "shr" | KLshr -> "lshr"
  | KBand -> "band" | KBor -> "bor" | KBxor -> "bxor"
  | KWadd -> "wadd" | KWsub -> "wsub" | KWmul -> "wmul"
  | KWshl -> "wshl" | KWshr -> "wshr"

let cmp_name = function
  | Clt -> "lt" | Cle -> "le" | Cgt -> "gt"
  | Cge -> "ge" | Ceq -> "eq" | Cne -> "ne"

let to_string = function
  | Const n -> Printf.sprintf "const %d" n
  | Load_local n -> Printf.sprintf "lload %d" n
  | Store_local n -> Printf.sprintf "lstore %d" n
  | Load_global a -> Printf.sprintf "gload @%d" a
  | Store_global a -> Printf.sprintf "gstore @%d" a
  | Aload a -> Printf.sprintf "aload #%d" a
  | Astore a -> Printf.sprintf "astore #%d" a
  | Aload_u a -> Printf.sprintf "aload.u #%d" a
  | Astore_u a -> Printf.sprintf "astore.u #%d" a
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Div_u -> "div.u" | Mod_u -> "mod.u"
  | Shl -> "shl" | Shr -> "shr" | Lshr -> "lshr"
  | Band -> "band" | Bor -> "bor" | Bxor -> "bxor" | Bnot -> "bnot"
  | Neg -> "neg"
  | Wadd -> "wadd" | Wsub -> "wsub" | Wmul -> "wmul"
  | Wshl -> "wshl" | Wshr -> "wshr"
  | Wbnot -> "wbnot" | Wneg -> "wneg" | Wmask -> "wmask"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | Tobool -> "tobool" | Not -> "not"
  | Jmp t -> Printf.sprintf "jmp %d" t
  | Jz t -> Printf.sprintf "jz %d" t
  | Jnz t -> Printf.sprintf "jnz %d" t
  | Call f -> Printf.sprintf "call fn%d" f
  | Callext e -> Printf.sprintf "callext ext%d" e
  | Ret -> "ret"
  | Pop -> "pop"
  | Dup -> "dup"
  | Halt -> "halt"
  | Bink (op, k) -> Printf.sprintf "%s.k %d" (bink_name op) k
  | Cmpk (c, k) -> Printf.sprintf "%s.k %d" (cmp_name c) k
  | Jcmp (c, flag, t) ->
      Printf.sprintf "j%s%s %d" (if flag then "" else "n") (cmp_name c) t
  | Jcmpk (c, k, flag, t) ->
      Printf.sprintf "j%s%s.k %d, %d" (if flag then "" else "n") (cmp_name c) k t
  | Aload_k (a, k) -> Printf.sprintf "aload.k #%d[%d]" a k
  | Local_addk (n, k) -> Printf.sprintf "laddk %d, %d" n k
  | Load_local2 (a, b) -> Printf.sprintf "lload2 %d, %d" a b
  | Bin_local (op, n) -> Printf.sprintf "%s.l %d" (bink_name op) n
  | Bin_local2 (op, a, b) -> Printf.sprintf "%s.ll %d, %d" (bink_name op) a b
  | Aload_local (a, n) -> Printf.sprintf "aload.l #%d[l%d]" a n
  | Move_local (dst, src) -> Printf.sprintf "lmove %d, %d" dst src
  | Jcmpk_local (c, n, k, flag, t) ->
      Printf.sprintf "j%s%s.lk %d, %d, %d"
        (if flag then "" else "n")
        (cmp_name c) n k t
  | Store_localk (n, k) -> Printf.sprintf "lstore.k %d, %d" n k
  | Bin_store (op, n) -> Printf.sprintf "%s.st %d" (bink_name op) n
  | Bink_store (op, k, n) -> Printf.sprintf "%s.kst %d, %d" (bink_name op) k n
  | Bink_local (op, n, k) -> Printf.sprintf "%s.lk %d, %d" (bink_name op) n k
  | Bin_aload_local (op, a, n) ->
      Printf.sprintf "%s.al #%d[l%d]" (bink_name op) a n
  | Aload_local_store (a, n, dst) ->
      Printf.sprintf "aload.lst #%d[l%d], %d" a n dst
  | Move_local2 (d1, s1, d2, s2) ->
      Printf.sprintf "lmove2 %d, %d, %d, %d" d1 s1 d2 s2
