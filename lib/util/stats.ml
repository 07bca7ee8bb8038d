let check_nonempty name samples =
  if Array.length samples = 0 then
    invalid_arg (Printf.sprintf "Stats.%s: empty sample array" name)

let mean samples =
  check_nonempty "mean" samples;
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let stddev samples =
  check_nonempty "stddev" samples;
  let n = Array.length samples in
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) samples;
    sqrt (!acc /. float_of_int (n - 1))
  end

let percentile p samples =
  check_nonempty "percentile" samples;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median samples = percentile 50.0 samples
