(** Integer intervals — the abstract domain of both load-time interval
    analyses: the stack-VM verifier's pass 2, whose fixpoint also
    yields the [graftkit check] diagnostics, and the register VM's flow
    pass.

    Values are host ints (GEL's [int] is the host's 63-bit int; [word]
    values are the subset [0, 2^32)). Because GEL [int] arithmetic
    wraps silently at the host width, any transfer function whose
    concrete result could overflow must give up and return [top]; all
    bound arithmetic below is overflow-checked.

    The domain is the classic join-semilattice of intervals with a
    bottom element, [leq]/[join]/[meet]/[widen] as usual. [Bot] means
    "no value reaches this point". *)

type lo = Ninf | L of int
type hi = Pinf | H of int
type t = Bot | Iv of lo * hi

let bot = Bot
let top = Iv (Ninf, Pinf)
let const n = Iv (L n, H n)

(** [range a b] is the interval [a, b]; empty ranges collapse to
    [Bot]. *)
let range a b = if a > b then Bot else Iv (L a, H b)

let word_mask = Graft_gel.Wordops.mask
let word_top = range 0 word_mask

let lo_le a b =
  match (a, b) with Ninf, _ -> true | _, Ninf -> false | L x, L y -> x <= y

let hi_le a b =
  match (a, b) with _, Pinf -> true | Pinf, _ -> false | H x, H y -> x <= y

let lo_min a b = if lo_le a b then a else b
let lo_max a b = if lo_le a b then b else a
let hi_min a b = if hi_le a b then a else b
let hi_max a b = if hi_le a b then b else a

let norm lo hi =
  match (lo, hi) with L a, H b when a > b -> Bot | _ -> Iv (lo, hi)

let join i1 i2 =
  match (i1, i2) with
  | Bot, i | i, Bot -> i
  | Iv (l1, h1), Iv (l2, h2) -> Iv (lo_min l1 l2, hi_max h1 h2)

let meet i1 i2 =
  match (i1, i2) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, h1), Iv (l2, h2) -> norm (lo_max l1 l2) (hi_min h1 h2)

let leq i1 i2 =
  match (i1, i2) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv (l1, h1), Iv (l2, h2) -> lo_le l2 l1 && hi_le h1 h2

let equal i1 i2 =
  match (i1, i2) with
  | Bot, Bot -> true
  | Iv (l1, h1), Iv (l2, h2) -> l1 = l2 && h1 = h2
  | _ -> false

(** Standard interval widening: any unstable bound jumps to infinity,
    which bounds every ascending chain. *)
let widen old next =
  match (old, next) with
  | Bot, i | i, Bot -> i
  | Iv (l1, h1), Iv (l2, h2) ->
      Iv ((if lo_le l1 l2 then l1 else Ninf), if hi_le h2 h1 then h1 else Pinf)

let contains i n =
  match i with Bot -> false | Iv (l, h) -> lo_le l (L n) && hi_le (H n) h

let is_bot i = i = Bot

let to_string = function
  | Bot -> "bot"
  | Iv (l, h) ->
      let ls = match l with Ninf -> "-inf" | L n -> string_of_int n in
      let hs = match h with Pinf -> "+inf" | H n -> string_of_int n in
      Printf.sprintf "[%s,%s]" ls hs

(* ------------------------------------------------------------------ *)
(* Overflow-checked bound arithmetic.                                  *)
(* ------------------------------------------------------------------ *)

let ovf_add x y =
  let s = x + y in
  if x >= 0 = (y >= 0) && s >= 0 <> (x >= 0) then None else Some s

let ovf_neg x = if x = min_int then None else Some (-x)

let ovf_mul x y =
  if x = 0 || y = 0 then Some 0
  else
    let p = x * y in
    if p / y = x && (x <> min_int || y <> -1) && (y <> min_int || x <> -1) then
      Some p
    else None

(* ------------------------------------------------------------------ *)
(* Transfer functions.                                                 *)
(* ------------------------------------------------------------------ *)

let add i1 i2 =
  match (i1, i2) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, h1), Iv (l2, h2) -> (
      let lo =
        match (l1, l2) with
        | Ninf, _ | _, Ninf -> Some Ninf
        | L a, L b -> Option.map (fun s -> L s) (ovf_add a b)
      in
      let hi =
        match (h1, h2) with
        | Pinf, _ | _, Pinf -> Some Pinf
        | H a, H b -> Option.map (fun s -> H s) (ovf_add a b)
      in
      match (lo, hi) with Some lo, Some hi -> Iv (lo, hi) | _ -> top)

let neg i =
  match i with
  | Bot -> Bot
  | Iv (l, h) -> (
      let lo =
        match h with Pinf -> Some Ninf | H a -> Option.map (fun s -> L s) (ovf_neg a)
      in
      let hi =
        match l with Ninf -> Some Pinf | L a -> Option.map (fun s -> H s) (ovf_neg a)
      in
      match (lo, hi) with Some lo, Some hi -> Iv (lo, hi) | _ -> top)

let sub i1 i2 = add i1 (neg i2)

let nonneg = function
  | Bot -> true
  | Iv (L a, _) -> a >= 0
  | Iv (Ninf, _) -> false

let mul i1 i2 =
  match (i1, i2) with
  | Bot, _ | _, Bot -> Bot
  | Iv (L a1, H b1), Iv (L a2, H b2) -> (
      match (ovf_mul a1 a2, ovf_mul a1 b2, ovf_mul b1 a2, ovf_mul b1 b2) with
      | Some c1, Some c2, Some c3, Some c4 ->
          Iv
            ( L (min (min c1 c2) (min c3 c4)),
              H (max (max c1 c2) (max c3 c4)) )
      | _ -> top)
  | i1, i2 when nonneg i1 && nonneg i2 -> (
      (* At least one bound is infinite; products of non-negative
         ranges stay non-negative. *)
      match (i1, i2) with
      | Iv (L a1, _), Iv (L a2, _) -> (
          match ovf_mul a1 a2 with
          | Some c -> Iv (L c, Pinf)
          | None -> Iv (L 0, Pinf))
      | _ -> Iv (L 0, Pinf))
  | _ -> top

(* Truncated division with a divisor range confined to [1, +inf).
   |x/c| shrinks as c grows and x/c is monotone in x, so the extrema
   lie on the corners (plus 0 when the divisor is unbounded). *)
let div_pos num (c1 : int) (c2_opt : int option) =
  match num with
  | Bot -> Bot
  | Iv (l, h) ->
      let cands x =
        (x / c1) :: (match c2_opt with Some c2 -> [ x / c2 ] | None -> [ 0 ])
      in
      let all =
        (match l with L a -> cands a | Ninf -> [])
        @ (match h with H b -> cands b | Pinf -> [])
      in
      let lo =
        match l with Ninf -> Ninf | L _ -> L (List.fold_left min max_int all)
      in
      let hi =
        match h with Pinf -> Pinf | H _ -> H (List.fold_left max min_int all)
      in
      Iv (lo, hi)

let div num den =
  match (num, den) with
  | Bot, _ | _, Bot -> Bot
  | _, Iv (L c1, H c2) when c1 >= 1 -> div_pos num c1 (Some c2)
  | _, Iv (L c1, Pinf) when c1 >= 1 -> div_pos num c1 None
  | _ -> top

(* OCaml [mod]: result sign follows the dividend, |r| < |divisor|. *)
let rem num den =
  match (num, den) with
  | Bot, _ | _, Bot -> Bot
  | _, Iv (L c1, h) when c1 >= 1 -> (
      let bound = match h with H c2 -> Some (c2 - 1) | Pinf -> None in
      if nonneg num then
        let nhi = match num with Iv (_, H b) -> Some b | _ -> None in
        match (bound, nhi) with
        | Some b, Some nb -> range 0 (min b nb)
        | Some b, None -> range 0 b
        | None, Some nb -> range 0 nb
        | None, None -> Iv (L 0, Pinf)
      else match bound with Some b -> range (-b) b | None -> top)
  | _ -> top

(* x land y: a non-negative operand bounds the result to [0, that
   operand's max] regardless of the other side's sign. *)
let band i1 i2 =
  match (i1, i2) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
      let cap i = match i with Iv (L a, H b) when a >= 0 -> Some b | _ -> None in
      let caps = List.filter_map cap [ i1; i2 ] in
      (match caps with
      | [] -> if nonneg i1 && nonneg i2 then Iv (L 0, Pinf) else top
      | [ b ] -> range 0 b
      | b1 :: b2 :: _ -> range 0 (min b1 b2))

(* Smallest all-ones mask covering [n] (n >= 0). *)
let next_mask n =
  let rec go m = if m >= n then m else go ((2 * m) + 1) in
  go 0

let bor_like i1 i2 =
  match (i1, i2) with
  | Bot, _ | _, Bot -> Bot
  | Iv (L a1, H b1), Iv (L a2, H b2) when a1 >= 0 && a2 >= 0 ->
      if b1 < 0x4000_0000_0000_0000 && b2 < 0x4000_0000_0000_0000 then
        range 0 (next_mask (max b1 b2))
      else Iv (L 0, Pinf)
  | i1, i2 when nonneg i1 && nonneg i2 -> Iv (L 0, Pinf)
  | _ -> top

(* ------------------------------------------------------------------ *)
(* IR-facing operations.                                               *)
(* ------------------------------------------------------------------ *)

open Graft_gel

(* Word-kind add/sub/mul wrap modulo 2^32: exact when the unwrapped
   result already fits, else the whole word range. *)
let word_wrap i = if leq i word_top then i else word_top

let to_word i =
  (* ToWord masks the low 32 bits. *)
  match i with Iv (L a, H b) when a >= 0 && b <= word_mask -> i | _ -> word_top

let bool_result = range 0 1

let bnot kind i =
  match kind with
  | Ir.Kint -> (
      (* lnot x = -x - 1: an exact flip, never overflows. *)
      match i with
      | Bot -> Bot
      | Iv (l, h) ->
          let lo = match h with Pinf -> Ninf | H b -> L (lnot b) in
          let hi = match l with Ninf -> Pinf | L a -> H (lnot a) in
          Iv (lo, hi))
  | Ir.Kword -> (
      match i with
      | Iv (L a, H b) when a >= 0 && b <= word_mask ->
          Iv (L (word_mask - b), H (word_mask - a))
      | _ -> word_top)

let neg_k kind i =
  match kind with
  | Ir.Kint -> neg i
  | Ir.Kword -> (
      match i with
      | Iv (L 0, H 0) -> const 0
      | _ -> word_top)

(** Transfer for [Ir.Arith]. Sound for word operands under the int
    rules wherever the two semantics agree on non-negative inputs
    (division, modulo, and the bitwise ops); the wrapping word
    add/sub/mul/shift forms are handled separately. *)
let arith kind op i1 i2 =
  match (kind, op) with
  | Ir.Kint, Ir.Add -> add i1 i2
  | Ir.Kint, Ir.Sub -> sub i1 i2
  | Ir.Kint, Ir.Mul -> mul i1 i2
  (* Kind-independent on purpose: these five lower to kind-erased
     opcodes (Div, Mod, Band, Bor, Bxor), so the bytecode verifier
     cannot tell word from int at these sites, and every analysis uses
     the one transfer for both kinds. It is sound for word operands
     because they are already masked, so the int rules contain the
     (no-op) masked results. *)
  | _, Ir.Div -> div i1 i2
  | _, Ir.Mod -> rem i1 i2
  | _, Ir.Band -> band i1 i2
  | _, (Ir.Bor | Ir.Bxor) -> bor_like i1 i2
  | Ir.Kword, Ir.Add -> word_wrap (add i1 i2)
  | Ir.Kword, Ir.Sub -> word_wrap (sub i1 i2)
  | Ir.Kword, Ir.Mul -> word_wrap (mul i1 i2)
  | Ir.Kword, (Ir.Shl | Ir.Shr | Ir.Lshr) -> word_top
  | Ir.Kint, (Ir.Shl | Ir.Shr | Ir.Lshr) -> top

(* ------------------------------------------------------------------ *)
(* Branch refinement.                                                  *)
(* ------------------------------------------------------------------ *)

let negate_cmp = function
  | Ir.Lt -> Ir.Ge
  | Ir.Le -> Ir.Gt
  | Ir.Gt -> Ir.Le
  | Ir.Ge -> Ir.Lt
  | Ir.Eq -> Ir.Ne
  | Ir.Ne -> Ir.Eq

let hi_pred = function Pinf -> Pinf | H k -> if k = min_int then H k else H (k - 1)
let lo_succ = function Ninf -> Ninf | L k -> if k = max_int then L k else L (k + 1)

(** [refine_cmp c a b] assumes [a c b] holds and returns the narrowed
    [(a', b')]. Either side collapsing to [Bot] means the comparison
    cannot be true, i.e. the guarded edge is unreachable. *)
let refine_cmp c a b =
  match (a, b) with
  | Bot, _ | _, Bot -> (Bot, Bot)
  | Iv (la, ha), Iv (lb, hb) -> (
      match c with
      | Ir.Lt ->
          ( meet a (Iv (Ninf, hi_pred hb)),
            meet b (Iv (lo_succ la, Pinf)) )
      | Ir.Le -> (meet a (Iv (Ninf, hb)), meet b (Iv (la, Pinf)))
      | Ir.Gt ->
          ( meet a (Iv (lo_succ lb, Pinf)),
            meet b (Iv (Ninf, hi_pred ha)) )
      | Ir.Ge -> (meet a (Iv (lb, Pinf)), meet b (Iv (Ninf, ha)))
      | Ir.Eq ->
          let m = meet a b in
          (m, m)
      | Ir.Ne ->
          let trim x other =
            match (x, other) with
            | Iv (L xa, H xb), Iv (L k, H k') when k = k' ->
                if xa = k && xb = k then Bot
                else if xa = k then Iv (L (k + 1), H xb)
                else if xb = k then Iv (L xa, H (k - 1))
                else x
            | _ -> x
          in
          (trim a b, trim b a))
