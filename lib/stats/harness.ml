(* The one timing loop.

   It times the graft tables and ablations of [graftkit tables], the
   tier suite behind BENCH_stackvm.json, and the upcall round trip,
   all under one protocol:

   - iteration count calibrated once, on the first configuration, so
     every configuration times the same batch size;
   - configurations interleaved round by round, so a contention spike
     on a shared host lands on one round of every column instead of
     entirely on one column;
   - each sample GC-fenced ([Gc.full_major] before the timed window),
     so collecting the previous round's garbage is not attributed to
     whichever configuration runs next;
   - auto-repetition: rounds continue until every configuration's
     bootstrap CI half-width is within [target_rhw] of its median
     (equivalently, until the coefficient of variation stops mattering)
     or [max_rounds] hits.

   Per-round pairing survives: [samples] arrays are index-aligned
   across configurations, so {!paired_delta_pct} can compare within a
   round, where host conditions are shared, and {!budget} judges such
   a delta on its CI rather than its median. *)

open Graft_util

type config = {
  warmup : int;  (** warmup batches per configuration before timing *)
  min_rounds : int;
  max_rounds : int;  (** auto-repetition cap *)
  target_rhw : float;  (** stop when every CI half-width / median <= this *)
  target_s : float;  (** calibrated duration of one timed batch *)
  max_iters : int;  (** calibration cap (1 forces single-shot timing) *)
  gc_fence : bool;  (** Gc.full_major before each timed window *)
}

let quick =
  {
    warmup = 1;
    min_rounds = 5;
    max_rounds = 15;
    target_rhw = 0.05;
    target_s = 0.02;
    max_iters = 10_000_000;
    gc_fence = true;
  }

let full =
  {
    quick with
    min_rounds = 10;
    max_rounds = 30;
    target_rhw = 0.03;
    target_s = 0.1;
  }

type thunk = {
  prepare : unit -> unit;  (** before each round's timed window *)
  op : unit -> unit;  (** the measured operation *)
  finish : unit -> unit;  (** after each round's timed window *)
}

let stage op = { prepare = ignore; op; finish = ignore }

type measurement = {
  est : Robust.estimate;
  iters : int;  (** operations per timed batch *)
  samples : float array;  (** per-call seconds, one per round, in round order *)
}

let check_config c =
  if c.min_rounds < 1 || c.max_rounds < c.min_rounds then
    invalid_arg "Harness: need 1 <= min_rounds <= max_rounds";
  if c.target_rhw <= 0.0 || c.target_s <= 0.0 || c.max_iters < 1 then
    invalid_arg "Harness: target_rhw, target_s, max_iters must be positive"

let sample_batch ~gc_fence ~iters op =
  if gc_fence then Gc.full_major ();
  let t0 = Timer.now_ns () in
  for _ = 1 to iters do
    op ()
  done;
  Int64.to_float (Int64.sub (Timer.now_ns ()) t0)
  /. float_of_int iters /. 1e9

let interleaved ?(config = quick) (thunks : thunk array) =
  check_config config;
  if Array.length thunks = 0 then invalid_arg "Harness.interleaved: no thunks";
  Array.iter
    (fun t ->
      t.prepare ();
      for _ = 1 to config.warmup do
        t.op ()
      done;
      t.finish ())
    thunks;
  let iters =
    if config.max_iters = 1 then 1
    else
      Timer.calibrate_iters ~max_iters:config.max_iters
        ~target_s:config.target_s thunks.(0).op
  in
  let acc = Array.map (fun _ -> ref []) thunks in
  let round = ref 0 in
  let converged () =
    Array.for_all
      (fun cell ->
        let e = Robust.estimate (Array.of_list !cell) in
        Robust.rel_half_width e <= config.target_rhw)
      acc
  in
  while
    !round < config.min_rounds
    || (!round < config.max_rounds && not (converged ()))
  do
    incr round;
    Array.iteri
      (fun i t ->
        t.prepare ();
        let s = sample_batch ~gc_fence:config.gc_fence ~iters t.op in
        t.finish ();
        acc.(i) := s :: !(acc.(i)))
      thunks
  done;
  Array.map
    (fun cell ->
      let samples = Array.of_list (List.rev !cell) in
      { est = Robust.estimate samples; iters; samples })
    acc

(** Time a single operation under the full protocol. *)
let measure ?config op = (interleaved ?config [| stage op |]).(0)

(** Robust estimate of the per-round relative difference, in percent:
    (b - a) / a * 100 paired by round index. Rounds beyond the shorter
    array are dropped. *)
let paired_delta_pct a b =
  let n = min (Array.length a) (Array.length b) in
  if n = 0 then invalid_arg "Harness.paired_delta_pct: empty samples";
  Robust.estimate
    (Array.init n (fun i ->
         if a.(i) = 0.0 then 0.0 else (b.(i) -. a.(i)) /. a.(i) *. 100.0))

(** "+1.3% ±0.8%": a paired delta with its CI half-width. *)
let pp_delta (e : Robust.estimate) =
  Printf.sprintf "%+.1f%% ±%.1f%%" e.Robust.median
    ((e.Robust.ci95_hi -. e.Robust.ci95_lo) /. 2.0)

(** Judge a paired delta against a budget on its CI: "within" only
    when the whole interval is at or under [pct], "over" only when the
    whole interval is above it. A median under budget with a CI that
    reaches past it proves nothing either way. The bounds are printed
    because the CI need not be centred on the median. *)
let budget ~pct (e : Robust.estimate) =
  let verdict =
    if e.Robust.ci95_hi <= pct then "within"
    else if e.Robust.ci95_lo > pct then "over"
    else "unproven"
  in
  Printf.sprintf "%s [%+.1f%%, %+.1f%%]" verdict e.Robust.ci95_lo
    e.Robust.ci95_hi
