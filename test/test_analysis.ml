(* Tests for graft_analysis and its consumers: the interval domain, the
   check-eliding static tier of the stack VM (elisions the load-time
   verifier derives and re-checks), SFI mask elision on the register
   VM, and the [graftkit check] diagnostics. *)

open Graft_gel
open Graft_mem
module Gel_sources = Graft_grafts.Gel_sources
module Stackvm = Graft_stackvm.Stackvm
module Opcode = Graft_stackvm.Opcode
module Program = Graft_stackvm.Program
module Vm = Graft_stackvm.Vm
module Verify = Graft_stackvm.Verify
module Check = Graft_stackvm.Check
module I = Graft_analysis.Interval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

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

(* [graftkit check]'s diagnostics for a source. *)
let check_source ?entries src =
  match Gel.compile_located src with
  | Ok (prog, meta) -> Check.run ?entries prog meta
  | Error e -> Alcotest.failf "compile: %s" (Srcloc.to_string e)

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
      let fn = Gelrun.fn checked_img entry ~args in
      let a = Gelrun.outcome (fun () -> Vm.run_session cs ~fn ~args ~fuel) in
      let b = Gelrun.outcome (fun () -> Vm.run_session ss ~fn ~args ~fuel) in
      let show = function
        | Ok v -> Printf.sprintf "Ok %d" v
        | Error (`Fault f) -> "Fault " ^ Fault.to_string f
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
   derive the [0,511] store index. Regression for the logdisk graft at
   nblocks=512. *)
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
  let image = build_image src in
  let checked = Stackvm.load_exn image in
  let static_ = Stackvm.load_static_exn (build_image src) in
  let e, t = Stackvm.elision_stats static_ in
  check_int "both sites present" 2 t;
  check_int "both sites elided" 2 e;
  for fuel = 0 to 120 do
    let a = Gelrun.vm image checked ~entry:"main" ~args:[| 6 |] ~fuel in
    let b = Gelrun.vm image static_ ~entry:"main" ~args:[| 6 |] ~fuel in
    let show = function
      | Ok v -> Printf.sprintf "Ok %d" v
      | Error (`Fault f) -> "Fault " ^ Fault.to_string f
    in
    Alcotest.(check string) (Printf.sprintf "fuel %d" fuel) (show a) (show b)
  done

(* ---------- SFI mask elision (register VM) ---------- *)

module Regvm = Graft_regvm.Regvm
module Machine = Graft_regvm.Machine
module Isa = Graft_regvm.Isa
module Rprogram = Graft_regvm.Program

let show_regvm = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "Fault " ^ Fault.to_string f

(* The elided SFI tier must produce identical results to the fully
   masked one while executing strictly fewer instructions (each elided
   site saves its three-instruction masking triple). *)
let regvm_parity ?(protection = Rprogram.Write_jump) mk_image calls =
  let image = mk_image () in
  let masked = Machine.create_session (Regvm.load_exn ~protection image) in
  let elided = Regvm.load_exn ~protection ~elide:true (mk_image ()) in
  let e, t = Regvm.elision_stats elided in
  check_bool "some sites elided" true (e > 0 && e <= t);
  let elided = Machine.create_session elided in
  let saved = ref 0 in
  List.iter
    (fun (entry, args) ->
      let fn = Gelrun.fn image entry ~args in
      let run s =
        Gelrun.outcome (fun () ->
            Machine.run_session s ~fn ~args ~fuel:1_000_000)
      in
      let a = run masked in
      let b = run elided in
      check_bool
        (Printf.sprintf "%s parity: %s vs %s" entry (show_regvm a)
           (show_regvm b))
        true
        (show_regvm a = show_regvm b);
      match (a, b) with
      | Ok _, Ok _ ->
          saved :=
            !saved + (Machine.instructions masked - Machine.instructions elided)
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

(* The regvm verifier admits an unmasked access only where its own
   interval analysis proves the address in-segment. *)
let test_regvm_unproven_accesses () =
  let seg = { Rprogram.base = 0; size = 1024 } in
  let mk code =
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
    }
  in
  let reject what p =
    match Graft_regvm.Verify.verify p with
    | Ok () -> Alcotest.failf "%s: verifier accepted an unproven access" what
    | Error msg ->
        check_bool (what ^ ": masking message") true
          (contains msg "sandbox register")
  in
  let accept what p =
    match Graft_regvm.Verify.verify p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: verifier refused sound program: %s" what msg
  in
  let store_at off =
    [| Isa.St (Isa.reg_zero, Isa.reg_zero, off); Isa.Ret Isa.reg_zero |]
  in
  (* Unmasked stores at constant addresses: inside the segment is
     provable, outside it is not. *)
  accept "const store in segment" (mk (store_at 100));
  reject "const store outside segment" (mk (store_at 5000));
  (* An address the analysis cannot bound (register from a load). *)
  reject "store through a loaded address"
    (mk
       [|
         Isa.Ld (4, Isa.reg_zero, 0);
         Isa.St (4, Isa.reg_zero, 0);
         Isa.Ret Isa.reg_zero;
       |]);
  (* An unmasked store no path reaches is never one the SFI pass
     leaves, so it is refused too. *)
  reject "unreachable store"
    (mk
       [|
         Isa.Ret Isa.reg_zero;
         Isa.St (Isa.reg_zero, Isa.reg_zero, 100);
         Isa.Ret Isa.reg_zero;
       |])

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
  let image = build_image src in
  let p = Stackvm.load_static_exn image in
  let elided, total = Stackvm.elision_stats p in
  check_int "nothing provable" 0 elided;
  check_int "two check sites" 2 total;
  (match Gelrun.vm image p ~entry:"main" ~args:[| 12; 1 |] ~fuel:1000 with
  | Error (`Fault (Fault.Out_of_bounds _)) -> ()
  | _ -> Alcotest.fail "expected out-of-bounds fault");
  match Gelrun.vm image p ~entry:"main" ~args:[| 3; 0 |] ~fuel:1000 with
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
      let r1 = Gelrun.vm img1 p1 ~entry:"main" ~args ~fuel:1_000_000 in
      let r2 = Gelrun.vm img2 p2 ~entry:"main" ~args ~fuel:1_000_000 in
      if show_run r1 <> show_run r2 then
        QCheck.Test.fail_reportf "divergence on seed %Ld (%d,%d): %s vs %s\n%s"
          seed a b (show_run r1) (show_run r2) src;
      Memory.cells img1.Link.mem = Memory.cells img2.Link.mem)

(* ---------- elision pins ---------- *)

module Runners = Graft_core.Runners
module Technology = Graft_core.Technology

let check_pair what expected got =
  Alcotest.(check (pair int int)) what expected got

(* The static tier's (elided, total) check sites on each paper graft,
   loaded as its runner loads it. The verifier derives these elisions
   from the bytecode; the counts are those of the analysis over the IR
   that decided them before, so a derivation that loses precision
   shows here. A map helper's key is not a check site: the map object
   checks it. *)
let test_pins_static () =
  let static_ ?(bounded = false) image =
    Stackvm.elision_stats
      (match Stackvm.load_static ~bounded image with
      | Ok p -> p
      | Error msg -> Alcotest.failf "static load rejected: %s" msg)
  in
  let with_map m src windows =
    let env =
      Runners.gel_env ~hosts:(Runners.map_hosts [| m |])
        Technology.Safe_lang_static src windows
    in
    static_ ~bounded:true env.Runners.image
  in
  check_pair "md5" (30, 37) (static_ (md5_image ()));
  check_pair "evict" (1, 6) (static_ (evict_image ()));
  check_pair "logdisk" (1, 3) (static_ (logdisk_image ()));
  check_pair "demux" (2, 4)
    (with_map
       (Graft_kernel.Graftmap.create_array ~name:"conn" 64)
       (Gel_sources.demux ~window_cells:2048 ~protocol:6 ~marker:0x42)
       [ ("pkt", 2048, false) ]);
  check_pair "hotset" (0, 0)
    (with_map
       (Graft_kernel.Graftmap.create_lru ~name:"hotset" 64)
       Gel_sources.hotset [])

(* A4's register-VM grafts, loaded as A4 loads them: (elided, total)
   maskable sites under each protection. *)
let test_pins_a4 () =
  let elided protection src windows =
    let env = Runners.gel_env Technology.Sfi_write_jump src windows in
    Regvm.elision_stats (Regvm.load_exn ~protection ~elide:true env.Runners.image)
  in
  let heap = Runners.evict_cells 128 in
  let evict = Gel_sources.evict ~heap_cells:heap in
  let logdisk = Gel_sources.logdisk ~nblocks:1024 in
  let windows = [ ("heap", heap, false) ] in
  check_pair "evict, write+jump" (0, 0) (elided Rprogram.Write_jump evict windows);
  check_pair "evict, full" (0, 6) (elided Rprogram.Full evict windows);
  check_pair "logdisk, write+jump" (4, 6) (elided Rprogram.Write_jump logdisk []);
  check_pair "logdisk, full" (9, 12) (elided Rprogram.Full logdisk [])

(* ---------- load-time work on deep and long loop nests ---------- *)

(* [depth] nested counted loops around one store whose index only the
   innermost loop's guard bounds. *)
let nest_source depth =
  let b = Buffer.create 1024 in
  Buffer.add_string b "array a[4];\nfn main() : int {\n";
  for d = 0 to depth - 1 do
    Printf.bprintf b "for (var i%d = 0; i%d < 2; i%d = i%d + 1) {\n" d d d d
  done;
  Printf.bprintf b "a[i%d] = i0;\n" (depth - 1);
  Buffer.add_string b (String.make depth '}');
  Buffer.add_string b "\nreturn 0;\n}\n";
  Buffer.contents b

(* [n] sequential counted loops, each storing a global through a
   masked index. *)
let sequence_source n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "array a[8];\nvar g : int = 1;\nfn main() : int {\n";
  for k = 0 to n - 1 do
    Printf.bprintf b
      "for (var j%d = 0; j%d < 8; j%d = j%d + 1) { a[(j%d + %d) & 7] = g; }\n"
      k k k k k k
  done;
  Buffer.add_string b "return 0;\n}\n";
  Buffer.contents b

(* Every VM tier loads a 16-deep nest and 64 sequential loops, bounded
   and not; the analyses behind the elided loaders finish and elide
   what they should, and [graftkit check] finds nothing to report.
   Under nested loops an analysis that re-runs each inner fixpoint per
   outer round does exponential work, and one that sweeps the whole
   program to widen does quadratic work in the number of loops. *)
let test_deep_loops_load () =
  let nest = nest_source 16 and sequence = sequence_source 64 in
  let vm_techs =
    Technology.
      [
        Ast_interp; Bytecode_vm; Bytecode_opt; Safe_lang_static; Jit;
        Sfi_write_jump; Sfi_full;
      ]
  in
  List.iter
    (fun (label, src, static_sites, wj_sites, full_sites) ->
      List.iter
        (fun bounded ->
          List.iter
            (fun tech ->
              let env = Runners.gel_env tech src [] in
              ignore
                (Runners.engine ~bounded ~fuel:1000 tech env.Runners.image
                  : Runners.engine))
            vm_techs;
          let image () = build_image src in
          let what tier =
            Printf.sprintf "%s, %s%s" label tier
              (if bounded then ", bounded" else "")
          in
          check_pair (what "safe-lang-static") static_sites
            (Stackvm.elision_stats
               (Stackvm.load_static_exn ~bounded (image ())));
          check_pair (what "jit") static_sites
            (Graft_jit.Jit.elision_stats
               (Graft_jit.Jit.load_exn ~bounded (image ()))))
        [ false; true ];
      List.iter
        (fun (tier, protection, sites) ->
          check_pair
            (Printf.sprintf "%s, %s elided" label tier)
            sites
            (Regvm.elision_stats
               (Regvm.load_exn ~protection ~elide:true (build_image src))))
        [ ("sfi-wj", Rprogram.Write_jump, wj_sites);
          ("sfi-full", Rprogram.Full, full_sites) ];
      check_int (label ^ ", check diagnostics") 0
        (List.length (check_source src)))
    [
      ("16-deep nest", nest, (1, 1), (0, 1), (0, 1));
      ("64 sequential loops", sequence, (64, 64), (64, 64), (128, 128));
    ]

(* ---------- verifier rejects unprovable elisions (stack VM) ---------- *)

(* Each case is the code edit a bad loader or a hostile program would
   make: an unchecked opcode the verifier cannot prove safe from the
   bytecode must be refused. *)
let test_unprovable_elisions () =
  let reject what fragment p =
    match Verify.verify p with
    | Ok () -> Alcotest.failf "%s: verifier accepted an unprovable elision" what
    | Error msg ->
        if not (contains msg fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what msg fragment
  in
  let edit (p : Program.t) f = { p with Program.code = Array.mapi f p.Program.code } in
  let first pred (p : Program.t) =
    let pc = ref (-1) in
    Array.iteri (fun i op -> if !pc < 0 && pred op then pc := i) p.Program.code;
    check_bool "found the site" true (!pc >= 0);
    !pc
  in
  (* The verifier's own elisions: a masked index and a constant
     divisor. *)
  let elided =
    Stackvm.load_static_exn
      (build_image
         {|
           array a[8];
           fn main(i : int) : int {
             var d : int = 3;
             a[i & 7] = i / d;
             return a[i & 7];
           }
         |})
  in
  check_pair "three sites elided" (3, 3) (Stackvm.elision_stats elided);
  (match Verify.verify elided with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "own elisions rejected: %s" msg);
  (* Widen the mask of [a[i & 7]] to 15: the index can pass the end of
     the 8-element array. *)
  let band = first (fun op -> op = Opcode.Band) elided in
  reject "mask widened to 15" "exceeds the bounds of array"
    (edit elided (fun pc op -> if pc = band - 1 then Opcode.Const 15 else op));
  (* Unchecked sites over operands the analysis cannot bound. *)
  let checked =
    Stackvm.load_exn
      (build_image
         {|
           array a[8];
           fn main(i : int, d : int) : int {
             return a[i] / d;
           }
         |})
  in
  let aload = first (function Opcode.Aload _ -> true | _ -> false) checked in
  let div = first (fun op -> op = Opcode.Div) checked in
  reject "unbounded index" "exceeds the bounds of array"
    (edit checked (fun pc op -> if pc = aload then Opcode.Aload_u 0 else op));
  reject "divisor may be zero" "admits zero"
    (edit checked (fun pc op -> if pc = div then Opcode.Div_u else op));
  reject "missing array" "array id 99 out of range"
    (edit checked (fun pc op -> if pc = aload then Opcode.Aload_u 99 else op));
  (* A legal-looking unchecked access no path reaches: past the last
     function. *)
  reject "unreached unchecked access" "no path reaches"
    {
      checked with
      Program.code =
        Array.append checked.Program.code [| Opcode.Const 0; Opcode.Aload_u 0 |];
    };
  (* An unchecked store into a read-only window, at an index in
     bounds. *)
  let ro =
    Stackvm.load_exn
      (build_image ~windows:[ ("w", 8, false) ]
         {|
           shared array w[8];
           fn main(i : int) : int {
             w[0] = i;
             return 0;
           }
         |})
  in
  let store = first (function Opcode.Astore _ -> true | _ -> false) ro in
  reject "unchecked store to read-only window" "read-only array"
    (edit ro (fun pc op ->
         match op with Opcode.Astore a when pc = store -> Opcode.Astore_u a | _ -> op))

(* ---------- graftkit check diagnostics ---------- *)

let diag_at kind line col diags =
  List.exists
    (fun (d : Check.diag) ->
      d.Check.dkind = kind
      && d.Check.dpos.Srcloc.line = line
      && d.Check.dpos.Srcloc.col = col)
    diags

let dump_diags diags =
  String.concat "\n"
    (List.map
       (fun (d : Check.diag) ->
         Printf.sprintf "%d:%d %s %s" d.Check.dpos.Srcloc.line
           d.Check.dpos.Srcloc.col d.Check.dkind d.Check.dmsg)
       diags)

(* [(1 + (1 + ... n))], [depth] additions deep. *)
let deep_expr_source depth =
  Printf.sprintf "fn main(n : int) : int {\n  return %sn%s;\n}\n"
    (String.concat "" (List.init depth (fun _ -> "(1 + ")))
    (String.make depth ')')

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
  let expect ?(absent = false) kind line col diags =
    if diag_at kind line col diags = absent then
      Alcotest.failf "%s %s at %d:%d; got:\n%s"
        (if absent then "unexpected" else "missing")
        kind line col (dump_diags diags)
  in
  let diags = check_source ~entries:[ "main" ] src in
  expect "unused-fn" 2 1 diags;
  expect "unused-local" 6 3 diags;
  expect "oob" 8 3 diags;
  expect "unreachable" 11 5 diags;
  expect "divzero" 13 3 diags;
  (* An access in a loop condition is reported at the loop, not at
     the body or step statement that ran last. *)
  let loops =
    check_source
      {|array a[4];
fn main(n : int) : int {
  var s : int = 0;
  while (a[9] > 0) {
    s = s + 1;
  }
  for (var j : int = 0; a[j + 5] < 3; j = j + 1) {
    s = s + j;
  }
  return s;
}
|}
  in
  expect "oob" 4 3 loops;
  expect "oob" 7 3 loops;
  expect ~absent:true "oob" 5 5 loops;
  expect ~absent:true "oob" 7 39 loops;
  (* A loop body that never runs is unreachable code. *)
  expect "unreachable" 4 5
    (check_source
       {|fn main(n : int) : int {
  var s : int = 0;
  for (var i : int = 0; i < 0; i = i + 1) {
    s = s + n;
  }
  return s;
}
|});
  (* The checked [a[n]] in the [&&]'s right operand proves n in [0,3]
     on the path that ran it, and n <= 2 on the other, so [!(n < 4)]
     never holds. *)
  let short_circuit =
    check_source
      {|array a[4];
fn main(n : int) : int {
  var s : int = 0;
  if (n > 2 && a[n] > 0) {
    s = 1;
  }
  if (!(n < 4)) {
    s = a[n];
  }
  return s;
}
|}
  in
  expect "unreachable" 8 5 short_circuit;
  expect ~absent:true "oob" 8 5 short_circuit;
  (* An expression deeper than the operand stack: no bytecode tier
     loads it, and check says so with the verifier's message. *)
  (match check_source (deep_expr_source 1100) with
  | [ d ] ->
      Alcotest.(check string) "verify kind" "verify" d.Check.dkind;
      check_bool "stack overflow message" true
        (contains d.Check.dmsg "stack overflow");
      check_bool "placed at the return" true (diag_at "verify" 2 3 [ d ])
  | ds -> Alcotest.failf "deep expression: got\n%s" (dump_diags ds));
  (* A clean graft yields no warnings. *)
  check_int "builtin evict is clean" 0
    (List.length
       (check_source ~entries:[ "contains"; "choose" ]
          (Gel_sources.evict ~heap_cells:256)))

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
    ("sfi elision: unproven accesses rejected", `Quick, test_regvm_unproven_accesses);
    ("elision pins: paper grafts, static tier", `Quick, test_pins_static);
    ("elision pins: A4 register VM", `Quick, test_pins_a4);
    ("deep and long loop nests load on every tier", `Quick, test_deep_loops_load);
    ("verifier rejects unprovable elisions", `Quick, test_unprovable_elisions);
    ("graftkit check diagnostics", `Quick, test_check_diagnostics);
    ("graftkit check --json", `Quick, test_check_json);
  ]

let () =
  Alcotest.run "analysis"
    [
      ("analysis", suite);
      ("soundness", List.map QCheck_alcotest.to_alcotest [ prop_static_sound ]);
    ]
