(* Robust statistics for timing data.

   Benchmark samples on a shared host are contaminated: GC pauses,
   scheduler preemption, and frequency drift produce a long right tail
   that inflates a mean and its standard deviation. Every reported
   number therefore goes through the same pipeline — Tukey-fence
   outlier rejection iterated to a fixed point, a median location
   estimate with the MAD as its spread, and a percentile-bootstrap 95%
   confidence interval on the median — so a table entry is "median
   [ci_lo, ci_hi]" rather than a bare point estimate.

   The bootstrap PRNG is seeded deterministically: the same sample
   array always yields the same interval, which keeps goldens and the
   regression gate reproducible. *)

open Graft_util

type estimate = {
  n_total : int;  (** raw samples collected *)
  n : int;  (** samples kept after outlier rejection *)
  mean : float;  (** mean of kept samples *)
  stddev : float;  (** stddev (n-1) of kept samples *)
  median : float;  (** median of kept samples — the reported number *)
  mad : float;  (** median absolute deviation of kept samples *)
  cv : float;  (** coefficient of variation: stddev / |mean|, 0 if mean = 0 *)
  ci95_lo : float;  (** bootstrap 95% CI on the median, lower bound *)
  ci95_hi : float;  (** upper bound *)
}

let check_nonempty name samples =
  if Array.length samples = 0 then
    invalid_arg (Printf.sprintf "Robust.%s: empty sample array" name)

let median samples = Stats.median samples

let mad samples =
  check_nonempty "mad" samples;
  let m = median samples in
  median (Array.map (fun x -> Float.abs (x -. m)) samples)

let cv samples =
  check_nonempty "cv" samples;
  (* A constant series has CV exactly 0; computing it through the mean
     can round sum/n a ulp away from the common value and leak a tiny
     positive stddev. *)
  if Array.for_all (fun x -> x = samples.(0)) samples then 0.0
  else
    let m = Stats.mean samples in
    if m = 0.0 then 0.0 else Stats.stddev samples /. Float.abs m

(* Tukey fences on the sample's own quartiles. *)
let fences samples =
  let q1 = Stats.percentile 25.0 samples in
  let q3 = Stats.percentile 75.0 samples in
  let iqr = q3 -. q1 in
  (q1 -. (1.5 *. iqr), q3 +. (1.5 *. iqr))

(* One rejection pass moves the quartiles, which can expose further
   outliers, so iterate to a fixed point: the result is idempotent by
   construction (a property test relies on this). Rejection never
   shrinks a sample below 4 points — quartiles of fewer are
   meaningless. *)
let rec reject_outliers samples =
  if Array.length samples < 4 then samples
  else begin
    let lo, hi = fences samples in
    let kept = Array.of_list
        (List.filter (fun x -> x >= lo && x <= hi) (Array.to_list samples))
    in
    if Array.length kept = Array.length samples || Array.length kept < 4 then
      samples
    else reject_outliers kept
  end

let default_resamples = 200
let default_seed = 0xB007CAFEL

(** Percentile bootstrap of [stat] over [samples]: resample with
    replacement [resamples] times, take the empirical
    [(1±confidence)/2] quantiles of the resampled statistics. The
    interval is widened, if needed, to contain the point estimate
    [stat samples] — for the small sample counts of a timing run the
    raw percentile interval already almost always does, and clamping
    makes "the CI contains the estimate" an invariant rather than a
    probability. *)
let bootstrap_ci ?(seed = default_seed) ?(resamples = default_resamples)
    ?(confidence = 0.95) stat samples =
  check_nonempty "bootstrap_ci" samples;
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Robust.bootstrap_ci: confidence out of (0,1)";
  let n = Array.length samples in
  let point = stat samples in
  if n = 1 then (point, point)
  else begin
    let rng = Prng.create seed in
    let scratch = Array.make n 0.0 in
    let stats =
      Array.init resamples (fun _ ->
          for i = 0 to n - 1 do
            scratch.(i) <- samples.(Prng.int rng n)
          done;
          stat scratch)
    in
    let tail = (1.0 -. confidence) /. 2.0 *. 100.0 in
    let lo = Stats.percentile tail stats in
    let hi = Stats.percentile (100.0 -. tail) stats in
    (Float.min lo point, Float.max hi point)
  end

let estimate ?seed ?resamples samples =
  check_nonempty "estimate" samples;
  let kept = reject_outliers samples in
  let lo, hi = bootstrap_ci ?seed ?resamples median kept in
  {
    n_total = Array.length samples;
    n = Array.length kept;
    mean = Stats.mean kept;
    stddev = Stats.stddev kept;
    median = median kept;
    mad = mad kept;
    cv = cv kept;
    ci95_lo = lo;
    ci95_hi = hi;
  }

(** Relative CI half-width: (hi - lo) / 2 / |median|; the harness's
    convergence criterion. 0 when the median is 0. *)
let rel_half_width e =
  if e.median = 0.0 then 0.0
  else (e.ci95_hi -. e.ci95_lo) /. 2.0 /. Float.abs e.median

(** "12.3us ±1.4%": median of kept samples, 95% CI half-width as a
    percentage of it — the per-cell rendering of every table. *)
let pp_percall e =
  Printf.sprintf "%s ±%.1f%%" (Timer.pp_seconds e.median)
    (100.0 *. rel_half_width e)
