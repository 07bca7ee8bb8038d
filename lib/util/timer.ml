(* Unix.gettimeofday at ns scale is adequate for >=100ns measurements
   batched over many iterations; all callers batch. *)
let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Unboxed variant for instrumentation hot paths: a 63-bit int holds
   nanosecond epochs until ~2262, and returning [int] avoids the Int64
   box the tracer would otherwise allocate per event. *)
let now_ns_int () = int_of_float (Unix.gettimeofday () *. 1e9)

let time_it f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (Int64.to_float (Int64.sub t1 t0) /. 1e9, result)

let run_batch f iters =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. 1e9

let calibrate_iters ?(max_iters = 10_000_000) ~target_s f =
  if target_s <= 0.0 then invalid_arg "Timer.calibrate_iters: target <= 0";
  let rec grow iters =
    let elapsed = run_batch f iters in
    if elapsed >= target_s /. 8.0 || iters >= max_iters then begin
      let per_call = elapsed /. float_of_int iters in
      if per_call <= 0.0 then max_iters
      else min max_iters (max 1 (int_of_float (target_s /. per_call)))
    end
    else grow (iters * 8)
  in
  grow 1

let pp_seconds s =
  let abs = Float.abs s in
  (* Three significant digits, but never an exponent: from 100 up,
     where [%.3g] shows integers until 999.5 rounds to "1e+03", print
     the integer. *)
  let pp v unit =
    if Float.abs v >= 100.0 then Printf.sprintf "%.0f%s" v unit
    else Printf.sprintf "%.3g%s" v unit
  in
  if abs = 0.0 then "0s"
  else if abs < 1e-6 then pp (s *. 1e9) "ns"
  else if abs < 1e-3 then pp (s *. 1e6) "us"
  else if abs < 1.0 then pp (s *. 1e3) "ms"
  else pp s "s"
