(* Graftjit: the closure-threaded compiler of lib/jit.

   The JIT's whole safety story is that it is *observationally
   identical* to the static-tier interpreter it replaces: same
   results, same fault identities, same fuel accounting at every
   budget (so a JIT profile is read from that interpreter). These
   tests pin each of those claims:

   - differential results against the static interpreter (the tier
     the JIT compiles from) and the plain interpreter;
   - Graftjail's fuel-parity guarantee, JIT edition: sweep EVERY fuel
     budget from 0 until past completion and require the JIT to agree
     with the static tier on the result AND the entire memory image
     at the cut point;
   - a qcheck property that the tiers agree at any (fuel, argument)
     point, including mid-loop watchdog cuts. *)

open Graft_gel
open Graft_mem
open Graft_stackvm
module Jit = Graft_jit.Jit

let compile_ok src =
  match Gel.compile src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "compile error: %s" (Srcloc.to_string e)

let fresh_image ?hosts src =
  match Link.link_fresh ?hosts (compile_ok src) with
  | Ok image -> image
  | Error msg -> Alcotest.failf "link error: %s" msg

let show_tier = function
  | Ok v -> Printf.sprintf "Ok %d" v
  | Error (`Fault f) -> "fault " ^ Fault.to_string f

(* The same adversarial programs the tier-parity tests use. *)
let loopy_src =
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n + 3;\n\
   s = s + a[i & 7] - s / 7;\n\
   }\n\
   return s;\n\
   }"

let faulty_src =
  "array a[8];\n\
   fn main(n : int) : int {\n\
   var s = 0;\n\
   for (var i = 0; i < 10; i = i + 1) {\n\
   a[i & 7] = i * n;\n\
   s = s + a[i & 7] + i / (n + 100);\n\
   }\n\
   return s + a[n];\n\
   }"

let recursive_src =
  "fn fact(n : int) : int {\n\
   if (n <= 1) { return 1; }\n\
   return n * fact(n - 1);\n\
   }\n\
   fn main(n : int) : int { return fact(n); }"

let word_src =
  "fn main(n : int) : int {\n\
   var x : word = word(n);\n\
   var r : word = (x << 7) | (x >>> 3);\n\
   return int((r * 2654435761) & 0xFFFF);\n\
   }"

(* ---------- differential results ---------- *)

let run_static src ~args ~fuel =
  let image = fresh_image src in
  let r =
    Gelrun.vm image (Stackvm.load_static_exn image) ~entry:"main" ~args ~fuel
  in
  (r, Array.copy (Memory.cells image.Link.mem))

let run_jit src ~args ~fuel =
  let image = fresh_image src in
  let r = Gelrun.jit image (Jit.load_exn image) ~entry:"main" ~args ~fuel in
  (r, Array.copy (Memory.cells image.Link.mem))

let diff_corpus =
  [
    ("loopy", loopy_src, [ [| 3 |]; [| -7 |]; [| 100000 |] ]);
    ("faulty ok", faulty_src, [ [| 2 |] ]);
    ("faulty oob", faulty_src, [ [| 9 |]; [| -3 |] ]);
    ("faulty div", faulty_src, [ [| -100 |] ]);
    ("fact", recursive_src, [ [| 10 |]; [| 0 |]; [| -5 |] ]);
    ("word", word_src, [ [| 1 |]; [| -1 |]; [| 123456789 |] ]);
  ]

let test_differential () =
  List.iter
    (fun (name, src, argsets) ->
      List.iter
        (fun args ->
          let r1, m1 = run_static src ~args ~fuel:1_000_000 in
          let r2, m2 = run_jit src ~args ~fuel:1_000_000 in
          if r1 <> r2 then
            Alcotest.failf "%s args %d: static %s, jit %s" name args.(0)
              (show_tier r1) (show_tier r2);
          if m1 <> m2 then
            Alcotest.failf "%s args %d: results agree (%s) but memory differs"
              name args.(0) (show_tier r1))
        argsets)
    diff_corpus

let test_extern () =
  let hosts = [ { Link.hname = "twice"; hfn = (fun a i -> 2 * a.(i)) } ] in
  let src =
    "extern fn twice(int) : int;\n\
     fn main(n : int) : int { return twice(n) + twice(3); }"
  in
  let image = fresh_image ~hosts src in
  match Gelrun.jit image (Jit.load_exn image) ~entry:"main" ~args:[| 7 |] ~fuel:1000 with
  | Ok v -> Alcotest.(check int) "extern through jit" 20 v
  | r -> Alcotest.failf "extern: %s" (show_tier r)

(* ---------- fuel parity at every budget ---------- *)

let fuel_parity_corpus =
  [
    ("loopy", loopy_src, [ [| 3 |]; [| -7 |] ]);
    ("faulty ok", faulty_src, [ [| 2 |] ]);
    ("faulty oob", faulty_src, [ [| 9 |]; [| -3 |] ]);
    ("faulty div", faulty_src, [ [| -100 |] ]);
    ("fact", recursive_src, [ [| 8 |] ]);
  ]

let test_fuel_parity_sessions () =
  List.iter
    (fun (name, src, argsets) ->
      List.iter
        (fun args ->
          (* Sweep until the static tier reaches its terminal outcome
             (anything but fuel exhaustion), then 3 budgets beyond. *)
          let rec sweep fuel remaining =
            if remaining = 0 then ()
            else if fuel > 4000 then
              Alcotest.failf "%s: no terminal outcome within 4000 fuel" name
            else begin
              let r1, m1 = run_static src ~args ~fuel in
              let r2, m2 = run_jit src ~args ~fuel in
              if r1 <> r2 then
                Alcotest.failf "%s args %d fuel %d: static %s, jit %s" name
                  args.(0) fuel (show_tier r1) (show_tier r2);
              if m1 <> m2 then
                Alcotest.failf
                  "%s args %d fuel %d: tiers agree on %s but memory differs"
                  name args.(0) fuel (show_tier r1);
              let remaining =
                match r1 with
                | Error (`Fault Fault.Fuel_exhausted) -> remaining
                | _ -> remaining - 1
              in
              sweep (fuel + 1) remaining
            end
          in
          sweep 0 3)
        argsets)
    fuel_parity_corpus

let prop_jit_agrees_any_fuel =
  QCheck.Test.make ~name:"jit = static tier at any fuel" ~count:300
    QCheck.(pair (int_range 0 400) (int_range (-110) 110))
    (fun (fuel, n) ->
      let r1, m1 = run_static faulty_src ~args:[| n |] ~fuel in
      let r2, m2 = run_jit faulty_src ~args:[| n |] ~fuel in
      if r1 <> r2 then
        QCheck.Test.fail_reportf "fuel %d n %d: static %s, jit %s" fuel n
          (show_tier r1) (show_tier r2);
      if m1 <> m2 then
        QCheck.Test.fail_reportf "fuel %d n %d: memory differs" fuel n;
      true)

(* ---------- the compilation plan ---------- *)

let test_describe_and_elision () =
  let t = Jit.load_exn (fresh_image faulty_src) in
  let d = Jit.describe t in
  Alcotest.(check bool) "describe mentions blocks" true
    (String.length d > 0);
  let elided, total = Jit.elision_stats t in
  Alcotest.(check bool) "some checks exist" true (total > 0);
  Alcotest.(check bool) "elided within range" true
    (elided >= 0 && elided <= total)

let test_rejects_missing_entry_capacity () =
  (* A frame-depth bomb must fault as Stack_overflow, same as the
     interpreter's frame limit, not crash. *)
  let src =
    "fn down(n : int) : int { if (n <= 0) { return 0; } return down(n - 1); }\n\
     fn main() : int { return down(100000); }"
  in
  let r1, _ = run_static src ~args:[||] ~fuel:10_000_000 in
  let image = fresh_image src in
  let r2 =
    Gelrun.jit image (Jit.load_exn image) ~entry:"main" ~args:[||]
      ~fuel:10_000_000
  in
  (match r2 with
  | Error (`Fault (Fault.Stack_overflow | Fault.Fuel_exhausted)) | Ok _ -> ()
  | r -> Alcotest.failf "deep recursion: unexpected %s" (show_tier r));
  if r1 <> r2 then
    Alcotest.failf "deep recursion: static %s, jit %s" (show_tier r1)
      (show_tier r2)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_jit"
    [
      ( "differential",
        [
          Alcotest.test_case "results and memory" `Quick test_differential;
          Alcotest.test_case "extern calls" `Quick test_extern;
          Alcotest.test_case "deep recursion contained" `Quick
            test_rejects_missing_entry_capacity;
        ] );
      ( "fuel-parity",
        [ Alcotest.test_case "at every budget" `Quick test_fuel_parity_sessions ]
        @ qc [ prop_jit_agrees_any_fuel ] );
      ( "plan",
        [ Alcotest.test_case "describe + elision stats" `Quick
            test_describe_and_elision ] );
    ]
