(* The splitmix64 state lives unboxed in an 8-byte buffer, and [next]
   is inlined into every draw, so the int64 arithmetic stays in
   registers and a draw allocates nothing. A [mutable int64] record
   field would box a fresh int64 on every step. *)
type t = bytes

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 (Steele, Lea, Flood 2014): the output of state [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  mix z

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Keep 62 bits so the value is a non-negative OCaml int; modulo bias
     is negligible for bounds << 2^62. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

(* Byte [i] is [int t 256] of the [i]th draw, the low 8 bits of its 62
   kept bits. The state stays in a local across the fill and is written
   back once, rather than read and written through the buffer per
   byte. *)
let bytes t n =
  let buf = Bytes.create n in
  let z = ref (Bytes.get_int64_le t 0) in
  for i = 0 to n - 1 do
    z := Int64.add !z golden_gamma;
    let raw = Int64.to_int (Int64.shift_right_logical (mix !z) 2) in
    Bytes.unsafe_set buf i (Char.unsafe_chr (raw land 255))
  done;
  Bytes.set_int64_le t 0 !z;
  buf

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = create (next t)
