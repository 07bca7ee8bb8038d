(* Tests for graft_util: stats, prng, tablefmt, asciiplot, timer. *)

open Graft_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Stats ---------- *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "mean single" 5.0 (Stats.mean [| 5.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.mean: empty sample array") (fun () ->
      ignore (Stats.mean [||]))

let test_stddev () =
  (* Known: stddev of [2;4;4;4;5;5;7;9] with n-1 denominator. *)
  let s = Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float ~eps:1e-6 "stddev" 2.13809 s;
  check_float "stddev singleton" 0.0 (Stats.stddev [| 3.0 |])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p100" 4.0 (Stats.percentile 100.0 xs);
  check_float "p50" 2.5 (Stats.percentile 50.0 xs)

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different streams" true (Prng.next a <> Prng.next b)

let test_prng_int_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_int_invalid () =
  let r = Prng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int r 0))

let test_prng_float_range () =
  let r = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_prng_uniformish () =
  (* Coarse uniformity: 10 buckets, 10k draws, each bucket within 3x
     of expectation. This is a smoke test, not a statistical test. *)
  let r = Prng.create 13L in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Prng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 300 || c > 3000 then Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

let test_prng_shuffle_permutation () =
  let r = Prng.create 5L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_bytes () =
  let r = Prng.create 3L in
  let b = Prng.bytes r 1000 in
  Alcotest.(check int) "length" 1000 (Bytes.length b);
  (* Not all identical *)
  let first = Bytes.get b 0 in
  Alcotest.(check bool) "varied" true
    (Bytes.exists (fun c -> c <> first) b)

(* [bytes] keeps the state in a local across its fill; it must give the
   bytes, and leave the state, that one [int t 256] per byte would. *)
let test_prng_bytes_reference () =
  for seed = 0 to 199 do
    let n = seed * 37 mod 301 in
    let seed = Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L in
    let fast = Prng.create seed and slow = Prng.create seed in
    let expect = Bytes.init n (fun _ -> Char.chr (Prng.int slow 256)) in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld, %d bytes" seed n)
      (Bytes.to_string expect)
      (Bytes.to_string (Prng.bytes fast n));
    Alcotest.(check int64)
      (Printf.sprintf "seed %Ld, next draw after %d bytes" seed n)
      (Prng.next slow) (Prng.next fast)
  done

let test_prng_split_independent () =
  let r = Prng.create 9L in
  let s = Prng.split r in
  Alcotest.(check bool) "split differs" true (Prng.next r <> Prng.next s)

(* The stream is pinned: every workload, fault plan and fuzz program
   is a function of it, so any change to how [Prng] stores its state
   must reproduce these values bit for bit. *)
let test_prng_pinned () =
  let check_next seed expected =
    let r = Prng.create seed in
    List.iter
      (fun v -> Alcotest.(check int64) (Printf.sprintf "seed %Ld" seed) v (Prng.next r))
      expected
  in
  check_next 42L
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L ];
  check_next 0x5EEDL
    [ 0x09f1fd9d03f0a9b4L; 0x553274161bbf8475L; 0x5d5bca4696b343b3L;
      0x70d29b6c7d22528dL ];
  let r = Prng.create 7L in
  Alcotest.(check (list int)) "int samples" [ 621; 951; 336; 50; 918; 76 ]
    (List.init 6 (fun _ -> Prng.int r 1000));
  Alcotest.(check string) "bytes sample" "\025\152m\024\232\2553OZ\\h\166"
    (Bytes.to_string (Prng.bytes (Prng.create 9L) 12));
  let r = Prng.create 3L in
  let s = Prng.split r in
  Alcotest.(check int64) "split stream" 0xbccdfd9c96a18897L (Prng.next s);
  Alcotest.(check int64) "parent after split" 0xb3466f8a7b81a989L (Prng.next r);
  Alcotest.(check (float 0.)) "float sample" 0.61297468254662435 (Prng.float r);
  Alcotest.(check bool) "bool sample" true (Prng.bool r)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A draw allocates nothing: the state is not a boxed int64. *)
let test_prng_no_allocation () =
  let r = Prng.create 7L in
  let acc = ref 0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          acc := !acc + Prng.int r 17
        done)
  in
  Alcotest.(check (float 0.)) "10,000 Prng.int calls" 0. words;
  (* [Prng.bytes 1000] allocates its 127-word buffer and nothing per byte. *)
  let words = minor_words (fun () -> ignore (Sys.opaque_identity (Prng.bytes r 1000))) in
  if words > 150. then Alcotest.failf "Prng.bytes 1000 allocated %.0f words" words

(* ---------- Tablefmt ---------- *)

let test_table_render () =
  let t = Tablefmt.create [| "Platform"; "Time" |] in
  Tablefmt.add_row t [| "Alpha"; "19.5us" |];
  Tablefmt.add_row t [| "Linux"; "55.9us" |];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has header" true
    (contains s "Platform");
  Alcotest.(check bool) "has row" true (contains s "55.9us")

let test_table_pad_short_row () =
  let t = Tablefmt.create [| "a"; "b"; "c" |] in
  Tablefmt.add_row t [| "x" |];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_too_many_cells () =
  let t = Tablefmt.create [| "a" |] in
  Alcotest.check_raises "too many"
    (Invalid_argument "Tablefmt.add_row: too many cells") (fun () ->
      Tablefmt.add_row t [| "x"; "y" |])

(* ---------- Asciiplot ---------- *)

let test_plot_renders () =
  let s =
    Asciiplot.render ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [
        {
          Asciiplot.label = "line";
          points = [| (0.0, 0.0); (10.0, 100.0) |];
          glyph = '*';
        };
      ]
  in
  Alcotest.(check bool) "nonempty" true (String.length s > 100);
  Alcotest.(check bool) "glyph plotted" true (contains s "*")

let test_plot_empty () =
  Alcotest.(check string) "empty" "(empty plot)\n" (Asciiplot.render [])

let test_plot_logy () =
  let s =
    Asciiplot.render ~logy:true
      [
        {
          Asciiplot.label = "l";
          points = [| (0.0, 1.0); (1.0, 10000.0) |];
          glyph = '+';
        };
      ]
  in
  Alcotest.(check bool) "renders log" true (String.length s > 0)

(* ---------- Timer ---------- *)

let test_timer_time_it () =
  let elapsed, v = Timer.time_it (fun () -> 42) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "elapsed >= 0" true (elapsed >= 0.0)

let test_timer_calibrate () =
  let iters = Timer.calibrate_iters ~target_s:0.001 (fun () -> ()) in
  Alcotest.(check bool) "positive" true (iters >= 1)

let test_pp_seconds () =
  Alcotest.(check string) "ns" "500ns" (Timer.pp_seconds 5e-7);
  Alcotest.(check string) "us" "12.3us" (Timer.pp_seconds 1.23e-5);
  Alcotest.(check string) "ms" "4ms" (Timer.pp_seconds 4e-3);
  Alcotest.(check string) "s" "2.5s" (Timer.pp_seconds 2.5);
  Alcotest.(check string) "zero" "0s" (Timer.pp_seconds 0.0);
  Alcotest.(check string) "hundreds" "441us" (Timer.pp_seconds 4.412e-4);
  Alcotest.(check string) "no exponent" "4412s" (Timer.pp_seconds 4412.3);
  Alcotest.(check string) "rounds up to 1000" "1000ms"
    (Timer.pp_seconds 0.9999)

(* ---------- QCheck properties ---------- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 20) (float_range 0. 1000.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Array.fold_left Float.min xs.(0) xs -. 1e-6
      && m <= Array.fold_left Float.max xs.(0) xs +. 1e-6)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair int64 (array small_int))
    (fun (seed, a) ->
      let r = Prng.create seed in
      let b = Array.copy a in
      Prng.shuffle r b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graft_util"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform-ish" `Quick test_prng_uniformish;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "bytes" `Quick test_prng_bytes;
          Alcotest.test_case "bytes = per-byte int 256" `Quick
            test_prng_bytes_reference;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "pinned stream" `Quick test_prng_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_prng_no_allocation;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short row" `Quick test_table_pad_short_row;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
        ] );
      ( "asciiplot",
        [
          Alcotest.test_case "renders" `Quick test_plot_renders;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "log y" `Quick test_plot_logy;
        ] );
      ( "timer",
        [
          Alcotest.test_case "time_it" `Quick test_timer_time_it;
          Alcotest.test_case "calibrate" `Quick test_timer_calibrate;
          Alcotest.test_case "pp_seconds" `Quick test_pp_seconds;
        ] );
      ( "properties",
        qc [ prop_percentile_monotone; prop_mean_bounded; prop_shuffle_preserves_multiset ] );
    ]
