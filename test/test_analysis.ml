(* Tests for graft_analysis and its consumers: the interval domain, the
   check-eliding static tier of the stack VM (compile-time proofs,
   load-time re-verification), and the [graftkit check] diagnostics. *)

open Graft_gel
open Graft_mem
module Gel_sources = Graft_grafts.Gel_sources
module Stackvm = Graft_stackvm.Stackvm
module Opcode = Graft_stackvm.Opcode
module Program = Graft_stackvm.Program
module Vm = Graft_stackvm.Vm
module Verify = Graft_stackvm.Verify
module Analyze = Graft_analysis.Analyze
module I = Graft_analysis.Interval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- image plumbing (mirrors Runners.gel_env) ---------- *)

let next_pow2 n =
  let r = ref 1024 in
  while !r < n do
    r := !r * 2
  done;
  !r

let build_image ?(windows = []) source =
  let prog =
    match Gel.compile source with
    | Ok p -> p
    | Error e -> Alcotest.failf "compile: %s" (Srcloc.to_string e)
  in
  let window_cells =
    List.fold_left (fun acc (_, len, _) -> acc + len) 0 windows
  in
  let size = next_pow2 (Link.footprint prog + window_cells + 64) in
  let mem = Memory.create size in
  let regions =
    List.map
      (fun (name, len, writable) ->
        let perm = if writable then Memory.perm_rw else Memory.perm_ro in
        (name, Memory.alloc mem ~name ~len ~perm))
      windows
  in
  match Link.link prog ~mem ~shared:regions ~hosts:[] with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link: %s" msg

let md5_image () =
  build_image
    ~windows:[ ("data", 2048, true); ("digest", 16, true) ]
    (Gel_sources.md5 ~data_cells:2048)

let evict_image () =
  build_image ~windows:[ ("heap", 256, false) ]
    (Gel_sources.evict ~heap_cells:256)

let logdisk_image () = build_image (Gel_sources.logdisk ~nblocks:64)

(* ---------- interval domain ---------- *)

let test_interval_basics () =
  check_bool "const in const" true (I.contains (I.const 7) 7);
  check_bool "join" true (I.equal (I.join (I.const 1) (I.const 5)) (I.range 1 5));
  check_bool "meet disjoint" true (I.is_bot (I.meet (I.range 0 3) (I.range 5 9)));
  check_bool "add" true
    (I.equal (I.add (I.range 1 2) (I.range 10 20)) (I.range 11 22));
  check_bool "widen lo" true
    (I.leq (I.range (-100) 5) (I.widen (I.range 0 5) (I.range (-1) 5)));
  check_bool "band caps" true
    (I.leq (I.arith Ir.Kint Ir.Band I.top (I.const 7)) (I.range 0 7));
  check_bool "rem caps" true
    (I.leq
       (I.arith Ir.Kint Ir.Mod (I.range 0 1000) (I.const 16))
       (I.range 0 15));
  (* Kint overflow must go to top, not wrap. *)
  check_bool "mul overflow" true
    (I.equal (I.mul (I.const max_int) (I.const 2)) I.top);
  let lo, hi = I.refine_cmp Ir.Lt I.top (I.const 8) in
  check_bool "refine lt excludes 8" true (not (I.contains lo 8));
  check_bool "refine lt keeps 7" true (I.contains lo 7);
  check_bool "refine lt rhs" true (I.equal hi (I.const 8))

(* ---------- elision rates on the paper's grafts ---------- *)

let rate_of image =
  let p = Stackvm.load_static_exn image in
  Stackvm.elision_stats p

let test_elision_rate_md5 () =
  let elided, total = rate_of (md5_image ()) in
  check_bool "md5 has check sites" true (total > 0);
  check_bool
    (Printf.sprintf "md5 elides >= 50%% of checks (%d/%d)" elided total)
    true
    (2 * elided >= total)

let test_elision_rate_aggregate () =
  let e1, t1 = rate_of (md5_image ()) in
  let e2, t2 = rate_of (evict_image ()) in
  check_bool "evict elides something" true (e2 > 0);
  check_bool
    (Printf.sprintf "md5+evict elide >= 50%% (%d/%d)" (e1 + e2) (t1 + t2))
    true
    (2 * (e1 + e2) >= t1 + t2)

(* ---------- tier parity: elided vs checked ---------- *)

(* Run the same entry sequence on a fully-checked and a check-elided
   program (each over its own fresh image) and require identical
   results, faults, and final memory. *)
let tier_parity ?(fuel = 100_000_000) mk_image calls =
  let checked_img = mk_image () in
  let static_img = mk_image () in
  let checked = Stackvm.load_exn checked_img in
  let static_ = Stackvm.load_static_exn static_img in
  let cs = Vm.create_session checked in
  let ss = Vm.create_session static_ in
  List.iter
    (fun (entry, args) ->
      let a = Vm.run_session cs ~entry ~args ~fuel in
      let b = Vm.run_session ss ~entry ~args ~fuel in
      let show = function
        | Ok v -> Printf.sprintf "Ok %d" v
        | Error (`Fault f) -> "Fault " ^ Fault.to_string f
        | Error (`Bad_entry m) -> "Bad_entry " ^ m
      in
      Alcotest.(check string)
        (Printf.sprintf "%s(%s)" entry
           (String.concat "," (Array.to_list (Array.map string_of_int args))))
        (show a) (show b))
    calls;
  Alcotest.(check (array int))
    "final memory identical"
    (Memory.cells checked_img.Link.mem)
    (Memory.cells static_img.Link.mem)

let test_parity_md5 () =
  let imgs = ref [] in
  let mk () =
    let img = md5_image () in
    imgs := img :: !imgs;
    img
  in
  (* Put some bytes in the shared data window so the transform chews on
     non-zero input; writing through Memory.cells models the kernel
     side of the window. *)
  tier_parity
    (fun () ->
      let img = mk () in
      let cells = Memory.cells img.Link.mem in
      for i = 0 to 511 do
        cells.(i mod Array.length cells) <- cells.(i mod Array.length cells)
      done;
      img)
    [ ("run", [| 4 |]); ("run", [| 1 |]) ]

let test_parity_evict () =
  tier_parity
    (fun () ->
      let img = evict_image () in
      let cells = Memory.cells img.Link.mem in
      (* Hand-build two interleaved lists in the read-only heap window:
         node at i = (page, next-index or -1). *)
      let heap = [| 5; 2; 7; 4; 9; -1; 11; -1 |] in
      Array.blit heap 0 cells 0 (Array.length heap);
      img)
    [
      ("contains", [| 0; 7 |]);
      ("contains", [| 0; 8 |]);
      ("choose", [| 0; 2 |]);
      ("choose", [| 2; 0 |]);
    ]

let test_parity_logdisk () =
  tier_parity logdisk_image
    [
      ("map_write", [| 0 |]);
      ("map_write", [| 7 |]);
      ("map_write", [| 7 |]);
      ("lookup", [| 7 |]);
      ("lookup", [| 63 |]);
      ("map_write", [| 64 |]);
      (* out of range: policy returns -1 *)
      ("lookup", [| -1 |]);
    ]

(* A counted loop past the verifier's widening threshold (300 visits):
   the loop head widens to [0,+inf), and the guard refinement must
   survive the straight-line merges in the body or the verifier cannot
   re-derive the compiler's [0,511] store-index claim. Regression for
   the logdisk graft at nblocks=512. *)
let test_parity_wide_loop () =
  let src =
    {|
array big[512];
var sum : int = 0;

fn fill() {
  for (var i = 0; i < 512; i = i + 1) { big[i] = i; }
}

fn total() : int {
  sum = 0;
  for (var i = 0; i < 512; i = i + 1) { sum = sum + big[i]; }
  return sum;
}
|}
  in
  let img = build_image src in
  let elided, totalc = Stackvm.elision_stats (Stackvm.load_static_exn img) in
  check_bool "wide loop sites elided" true (elided > 0 && elided = totalc);
  tier_parity
    (fun () -> build_image src)
    [ ("fill", [||]); ("total", [||]) ];
  tier_parity
    (fun () -> build_image (Gel_sources.logdisk ~nblocks:512))
    [ ("map_write", [| 3 |]); ("lookup", [| 3 |]); ("lookup", [| 511 |]) ]

(* Elided and checked tiers must burn fuel identically: sweep small
   fuel budgets over a loop whose accesses are elided and require the
   same outcome (including the exact fuel-exhaustion point) at every
   budget. *)
let test_parity_fuel () =
  let src =
    {|
      array a[8];
      fn main(n : int) : int {
        var s : int = 0;
        for (var i = 0; i < n; i = i + 1) {
          a[i & 7] = i;
          s = s + a[i & 7];
        }
        return s;
      }
    |}
  in
  let checked = Stackvm.load_exn (build_image src) in
  let static_ = Stackvm.load_static_exn (build_image src) in
  let e, t = Stackvm.elision_stats static_ in
  check_int "both sites present" 2 t;
  check_int "both sites elided" 2 e;
  for fuel = 0 to 120 do
    let a = Vm.run checked ~entry:"main" ~args:[| 6 |] ~fuel in
    let b = Vm.run static_ ~entry:"main" ~args:[| 6 |] ~fuel in
    let show = function
      | Ok v -> Printf.sprintf "Ok %d" v
      | Error (`Fault f) -> "Fault " ^ Fault.to_string f
      | Error (`Bad_entry m) -> "Bad_entry " ^ m
    in
    Alcotest.(check string) (Printf.sprintf "fuel %d" fuel) (show a) (show b)
  done

(* ---------- SFI mask elision (register VM) ---------- *)

module Regvm = Graft_regvm.Regvm
module Machine = Graft_regvm.Machine
module Isa = Graft_regvm.Isa
module Rprogram = Graft_regvm.Program

let show_regvm = function
  | Ok (o : Machine.outcome) -> Printf.sprintf "Ok %d" o.Machine.value
  | Error (`Fault f) -> "Fault " ^ Fault.to_string f
  | Error (`Bad_entry m) -> "Bad_entry " ^ m

(* The elided SFI tier must produce identical results to the fully
   masked one while executing strictly fewer instructions (each elided
   site saves its three-instruction masking triple). *)
let regvm_parity ?(protection = Rprogram.Write_jump) mk_image calls =
  let masked = Regvm.load_exn ~protection (mk_image ()) in
  let elided = Regvm.load_exn ~protection ~elide:true (mk_image ()) in
  let e, t = Regvm.elision_stats elided in
  check_bool "some sites elided" true (e > 0 && e <= t);
  let saved = ref 0 in
  List.iter
    (fun (entry, args) ->
      let a = Machine.run masked ~entry ~args ~fuel:1_000_000 in
      let b = Machine.run elided ~entry ~args ~fuel:1_000_000 in
      check_bool
        (Printf.sprintf "%s parity: %s vs %s" entry (show_regvm a)
           (show_regvm b))
        true
        (show_regvm a = show_regvm b);
      match (a, b) with
      | Ok oa, Ok ob ->
          saved := !saved + (oa.Machine.instructions - ob.Machine.instructions)
      | _ -> ())
    calls;
  check_bool "elision saves instructions" true (!saved > 0)

(* Masked indices and global slots are the bread-and-butter elisions:
   both store sites here are provably in-segment, so the elided tier
   must drop every masking triple. *)
let test_regvm_elision_masked_index () =
  let src =
    {|
      array a[8];
      var g : int = 0;
      fn main(n : int) : int {
        for (var i = 0; i < n; i = i + 1) {
          a[i & 7] = i;
          g = g + 1;
        }
        return g;
      }
    |}
  in
  regvm_parity (fun () -> build_image src) [ ("main", [| 20 |]) ];
  let p = Regvm.load_exn ~elide:true (build_image src) in
  let e, t = Regvm.elision_stats p in
  check_int "all store sites elided" t e

let test_regvm_elision_logdisk () =
  regvm_parity logdisk_image
    [
      ("map_write", [| 0 |]);
      ("map_write", [| 7 |]);
      ("lookup", [| 7 |]);
      ("lookup", [| 63 |]);
    ]

let test_regvm_elision_full_md5 () =
  regvm_parity ~protection:Rprogram.Full
    (fun () -> md5_image ())
    [ ("run", [| 2 |]) ]

(* The regvm verifier must refuse claims it cannot re-derive. *)
let test_regvm_bogus_claims () =
  let seg = { Rprogram.base = 0; size = 1024 } in
  let mk code claims =
    {
      Rprogram.code;
      funcs =
        [|
          {
            Rprogram.name = "main";
            nargs = 0;
            entry = 0;
            code_end = Array.length code;
          };
        |];
      host = [||];
      ext_arity = [||];
      ext_names = [||];
      cells = Array.make 1024 0;
      segment = seg;
      protection = Rprogram.Write_jump;
      claims;
    }
  in
  let reject what p =
    match Graft_regvm.Verify.verify p with
    | Ok () -> Alcotest.failf "%s: verifier accepted bogus program" what
    | Error _ -> ()
  in
  let accept what p =
    match Graft_regvm.Verify.verify p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: verifier refused sound program: %s" what msg
  in
  (* Store at a constant in-segment address, properly claimed. *)
  let good = [| Isa.St (Isa.reg_zero, Isa.reg_zero, 100); Isa.Ret Isa.reg_zero |] in
  accept "const store" (mk good [| (0, I.const 100) |]);
  (* Same store with no claim: unmasked protected store is refused. *)
  reject "unmasked store" (mk good [||]);
  (* Claim whose interval escapes the segment. *)
  reject "claim escapes segment" (mk good [| (0, I.range 100 5000) |]);
  (* Claim on a pc that is not a memory access. *)
  reject "claim on non-access"
    (mk good [| (0, I.const 100); (1, I.const 0) |]);
  (* Address the analysis cannot bound (register from a load), with an
     in-segment claim the verifier must fail to re-derive. *)
  let wild =
    [|
      Isa.Ld (4, Isa.reg_zero, 0);
      Isa.St (4, Isa.reg_zero, 0);
      Isa.Ret Isa.reg_zero;
    |]
  in
  reject "underivable claim" (mk wild [| (1, I.range 0 1023) |])

(* Faulting programs keep their faults in the static tier: an index the
   analysis cannot prove stays checked. *)
let test_parity_faults () =
  let src =
    {|
      array a[8];
      fn main(i : int, d : int) : int {
        return a[i] / d;
      }
    |}
  in
  let p = Stackvm.load_static_exn (build_image src) in
  let elided, total = Stackvm.elision_stats p in
  check_int "nothing provable" 0 elided;
  check_int "two check sites" 2 total;
  (match Vm.run p ~entry:"main" ~args:[| 12; 1 |] ~fuel:1000 with
  | Error (`Fault (Fault.Out_of_bounds _)) -> ()
  | _ -> Alcotest.fail "expected out-of-bounds fault");
  match Vm.run p ~entry:"main" ~args:[| 3; 0 |] ~fuel:1000 with
  | Error (`Fault Fault.Division_by_zero) -> ()
  | _ -> Alcotest.fail "expected division fault"

(* ---------- qcheck soundness ---------- *)

(* Random-program generator for the soundness property. Unlike the
   cross-engine fuzzer's generator this one is adversarial to the
   analysis: indices and divisors are sometimes unguarded, so programs
   do fault — and the elided tier must fault identically. *)
let gen_src seed =
  let rng = Graft_util.Prng.create seed in
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fresh = ref 0 in
  let rec expr d =
    if d <= 0 then
      match Graft_util.Prng.int rng 4 with
      | 0 -> p "%d" (Graft_util.Prng.int rng 21 - 10)
      | 1 -> p "a"
      | 2 -> p "b"
      | _ -> p "g"
    else
      match Graft_util.Prng.int rng 9 with
      | 0 | 1 -> expr 0
      | 2 ->
          (* provable index *)
          p "arr[(";
          expr (d - 1);
          p ") & 7]"
      | 3 ->
          (* unguarded index: may be negative or large *)
          p "arr[(";
          expr (d - 1);
          p ") %% 11]"
      | 4 ->
          (* provably non-zero divisor *)
          p "((";
          expr (d - 1);
          p ") / (((";
          expr (d - 1);
          p ") & 7) | 1))"
      | 5 ->
          (* unguarded divisor: may be zero *)
          p "((";
          expr (d - 1);
          p ") %% (";
          expr (d - 1);
          p "))"
      | _ ->
          let op = [| "+"; "-"; "*"; "&"; "|"; "^" |].(Graft_util.Prng.int rng 6) in
          p "((";
          expr (d - 1);
          p ") %s (" op;
          expr (d - 1);
          p "))"
  in
  let rec stmt d =
    match Graft_util.Prng.int rng 6 with
    | 0 ->
        p "g = ";
        expr d;
        p ";\n"
    | 1 ->
        p "arr[(";
        expr (max 0 (d - 1));
        p ") & 7] = ";
        expr d;
        p ";\n"
    | 2 ->
        p "arr[";
        expr (max 0 (d - 1));
        p "] = ";
        expr d;
        p ";\n"
    | 3 when d > 0 ->
        p "if ((";
        expr (d - 1);
        p ") < (";
        expr (d - 1);
        p ")) {\n";
        stmt (d - 1);
        p "} else {\n";
        stmt (d - 1);
        p "}\n"
    | 4 when d > 0 ->
        let v = Printf.sprintf "l%d" !fresh in
        incr fresh;
        let bound = 1 + Graft_util.Prng.int rng 6 in
        p "for (var %s = 0; %s < %d; %s = %s + 1) {\n" v v bound v v;
        p "arr[%s & 7] = arr[%s & 7] + " v v;
        expr (d - 1);
        p ";\n}\n"
    | _ ->
        p "g = g + ";
        expr (max 0 (d - 1));
        p ";\n"
  in
  p "var g : int = %d;\narray arr[8];\n" (Graft_util.Prng.int rng 100);
  p "fn main(a : int, b : int) : int {\n";
  let n = 2 + Graft_util.Prng.int rng 5 in
  for _ = 1 to n do
    stmt 2
  done;
  p "return (g + arr[0]) ^ (arr[7] + ";
  expr 1;
  p ");\n}\n";
  Buffer.contents buf

let show_run = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "Fault " ^ Fault.to_string f
  | Error (`Bad_entry m) -> "Bad_entry " ^ m

(* The soundness property: whatever the analysis marked safe, the
   elided tier agrees with the checked tier on result, fault identity,
   and final memory — so an unchecked access never lands where a
   checked one would have faulted. *)
let prop_static_sound =
  QCheck.Test.make ~name:"static tier sound on adversarial random programs"
    ~count:500
    QCheck.(triple int64 (int_range (-100) 100) (int_range (-100) 100))
    (fun (seed, a, b) ->
      let src = gen_src seed in
      let img1 = build_image src in
      let img2 = build_image src in
      let p1 = Stackvm.load_exn img1 in
      let p2 = Stackvm.load_static_exn img2 in
      let args = [| a; b |] in
      let r1 = Vm.run p1 ~entry:"main" ~args ~fuel:1_000_000 in
      let r2 = Vm.run p2 ~entry:"main" ~args ~fuel:1_000_000 in
      if show_run r1 <> show_run r2 then
        QCheck.Test.fail_reportf "divergence on seed %Ld (%d,%d): %s vs %s\n%s"
          seed a b (show_run r1) (show_run r2) src;
      Memory.cells img1.Link.mem = Memory.cells img2.Link.mem)

(* ---------- verifier rejects bogus proofs (stack VM) ---------- *)

let test_bogus_proofs () =
  let reject what p =
    match Verify.verify p with
    | Ok () -> Alcotest.failf "%s: verifier accepted a bogus proof" what
    | Error _ -> ()
  in
  (* A program with real elisions: constant divisor and masked index. *)
  let src =
    {|
      array a[8];
      fn main(i : int) : int {
        var d : int = 3;
        a[i & 7] = i / d;
        return a[i & 7];
      }
    |}
  in
  let p = Stackvm.load_static_exn (build_image src) in
  check_bool "has elisions" true (Array.length p.Program.proofs > 0);
  (* Stripping the proof manifest leaves naked unchecked opcodes. *)
  reject "stripped proofs" { p with Program.proofs = [||] };
  (* Inflating every claim to top makes them illegal (an index claim
     must fit the array, a divisor claim must exclude zero). *)
  reject "inflated claims"
    {
      p with
      Program.proofs = Array.map (fun (pc, _) -> (pc, I.top)) p.Program.proofs;
    };
  (* A divisor claim straddling zero. *)
  reject "divisor claim contains 0"
    {
      p with
      Program.proofs =
        Array.map
          (fun (pc, iv) ->
            match p.Program.code.(pc) with
            | Opcode.Div_u -> (pc, I.range (-1) 5)
            | _ -> (pc, iv))
          p.Program.proofs;
    };
  (* A legal-looking claim the verifier cannot re-derive: the divisor
     is [3,3]; claiming [4,5] excludes zero but doesn't contain it. *)
  reject "underivable claim"
    {
      p with
      Program.proofs =
        Array.map
          (fun (pc, iv) ->
            match p.Program.code.(pc) with
            | Opcode.Div_u -> (pc, I.range 4 5)
            | _ -> (pc, iv))
          p.Program.proofs;
    };
  (* A claim attached to a checked instruction. *)
  let checked = Stackvm.load_exn (build_image src) in
  let aload_pc = ref (-1) in
  Array.iteri
    (fun i op ->
      match op with Opcode.Aload _ when !aload_pc < 0 -> aload_pc := i | _ -> ())
    checked.Program.code;
  check_bool "found a checked aload" true (!aload_pc >= 0);
  reject "claim on checked instruction"
    { checked with Program.proofs = [| (!aload_pc, I.range 0 7) |] };
  (* An unchecked store into a read-only window: patch a checked store
     to Astore_u with an in-bounds claim; the verifier must still
     refuse because the array is not writable. *)
  let ro_img =
    build_image ~windows:[ ("w", 8, false) ]
      {|
        shared array w[8];
        fn main(i : int) : int {
          w[0] = i;
          return 0;
        }
      |}
  in
  let ro = Stackvm.load_exn ro_img in
  let store_pc = ref (-1) in
  let arr = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Opcode.Astore a when !store_pc < 0 ->
          store_pc := i;
          arr := a
      | _ -> ())
    ro.Program.code;
  check_bool "found the store" true (!store_pc >= 0);
  let code = Array.copy ro.Program.code in
  code.(!store_pc) <- Opcode.Astore_u !arr;
  reject "unchecked store to read-only window"
    { ro with Program.code; proofs = [| (!store_pc, I.const 0) |] }

(* ---------- graftkit check diagnostics ---------- *)

let diag_at kind line col diags =
  List.exists
    (fun (d : Analyze.diag) ->
      d.Analyze.dkind = kind
      && d.Analyze.dpos.Srcloc.line = line
      && d.Analyze.dpos.Srcloc.col = col)
    diags

let test_check_diagnostics () =
  let src =
    {|array a[8];
fn orphan() : int {
  return 42;
}
fn main(n : int) : int {
  var unused : int = 5;
  var d : int = 0;
  var q : int = a[9];
  if (n < 0) {
    return 0 - 1;
    q = q + 1;
  }
  return q / d;
}
|}
  in
  let prog, meta =
    match Gel.compile_located src with
    | Ok r -> r
    | Error e -> Alcotest.failf "compile: %s" (Srcloc.to_string e)
  in
  let diags = Analyze.check ~entries:[ "main" ] prog meta in
  let dump () =
    String.concat "\n"
      (List.map
         (fun (d : Analyze.diag) ->
           Printf.sprintf "%d:%d %s %s" d.Analyze.dpos.Srcloc.line
             d.Analyze.dpos.Srcloc.col d.Analyze.dkind d.Analyze.dmsg)
         diags)
  in
  let expect kind line col =
    if not (diag_at kind line col diags) then
      Alcotest.failf "missing %s at %d:%d; got:\n%s" kind line col (dump ())
  in
  expect "unused-fn" 2 1;
  expect "unused-local" 6 3;
  expect "oob" 8 3;
  expect "unreachable" 11 5;
  expect "divzero" 13 3;
  (* A clean graft yields no warnings. *)
  let clean_prog, clean_meta =
    match
      Gel.compile_located (Gel_sources.evict ~heap_cells:256)
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "compile: %s" (Srcloc.to_string e)
  in
  check_int "builtin evict is clean" 0
    (List.length
       (Analyze.check ~entries:[ "contains"; "choose" ] clean_prog clean_meta))

(* [graftkit check --json] as CI would consume it: the example grafts
   and the built-ins analyze clean under --werror, the document is the
   shared envelope at schema 3, and a graft with warnings fails
   --werror with every diagnostic carrying its five fields. *)
let test_check_json () =
  let module J = Graft_util.Minijson in
  let parse out =
    match J.parse out with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "check JSON does not parse: %s" msg
  in
  let field k doc =
    match J.member k doc with
    | Some v -> v
    | None -> Alcotest.failf "check JSON has no %S" k
  in
  let str k doc = Option.get (J.to_string (field k doc)) in
  let num k doc = Option.get (J.to_float (field k doc)) in
  let files doc = Option.get (J.to_list (field "files" doc)) in
  let dir = "../examples/grafts" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gel")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  check_bool "example grafts found" true (examples <> []);
  let code, out =
    Cli.graftkit ([ "check"; "--werror"; "--json"; "--builtin" ] @ examples)
  in
  check_int "clean under --werror" 0 code;
  let doc = parse out in
  check_int "schema" 3 (int_of_float (num "schema_version" doc));
  List.iter (fun k -> ignore (str k doc)) [ "host"; "ocaml" ];
  Alcotest.(check string) "tool" "check" (str "tool" doc);
  check_bool "werror" true (field "werror" doc = J.Bool true);
  check_int "warnings" 0 (int_of_float (num "warnings" doc));
  let labels = List.map (str "file") (files doc) in
  List.iter
    (fun l -> check_bool ("analyzed " ^ l) true (List.mem l labels))
    (examples @ [ "builtin:demux"; "builtin:hotset" ]);
  let bad = Filename.temp_file "check" ".gel" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc
        "fn main(n : int) : int {\n  var unused : int = 5;\n  return n / 0;\n}\n");
  let code, out = Cli.graftkit [ "check"; "--werror"; "--json"; bad ] in
  Sys.remove bad;
  check_int "warnings fail --werror" 1 code;
  let doc = parse out in
  let diags =
    List.concat_map
      (fun f -> Option.get (J.to_list (field "diagnostics" f)))
      (files doc)
  in
  check_int "one diagnostic per warning"
    (int_of_float (num "warnings" doc))
    (List.length diags);
  check_bool "diagnostics emitted" true (diags <> []);
  List.iter
    (fun d ->
      List.iter
        (fun k -> ignore (field k d))
        [ "line"; "col"; "severity"; "kind"; "message" ])
    diags

let suite =
  [
    ("interval basics", `Quick, test_interval_basics);
    ("elision rate: md5", `Quick, test_elision_rate_md5);
    ("elision rate: md5+evict aggregate", `Quick, test_elision_rate_aggregate);
    ("tier parity: md5", `Quick, test_parity_md5);
    ("tier parity: evict", `Quick, test_parity_evict);
    ("tier parity: logdisk", `Quick, test_parity_logdisk);
    ("tier parity: loop past widening threshold", `Quick, test_parity_wide_loop);
    ("tier parity: fuel exhaustion", `Quick, test_parity_fuel);
    ("tier parity: faults stay checked", `Quick, test_parity_faults);
    ("sfi elision: masked index + globals", `Quick, test_regvm_elision_masked_index);
    ("sfi elision: logdisk parity", `Quick, test_regvm_elision_logdisk);
    ("sfi elision: md5 full protection", `Quick, test_regvm_elision_full_md5);
    ("sfi elision: bogus claims rejected", `Quick, test_regvm_bogus_claims);
    ("verifier rejects bogus proofs", `Quick, test_bogus_proofs);
    ("graftkit check diagnostics", `Quick, test_check_diagnostics);
    ("graftkit check --json", `Quick, test_check_json);
  ]

let () =
  Alcotest.run "analysis"
    [
      ("analysis", suite);
      ("soundness", List.map QCheck_alcotest.to_alcotest [ prop_static_sound ]);
    ]
