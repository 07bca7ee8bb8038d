(** The unified timing harness: calibrated batches, interleaved
    GC-fenced rounds, CI-driven auto-repetition. The single entry
    point behind the graft tables and ablations of [graftkit tables],
    the tier suite [graftkit bench] gates, and the upcall bench. *)

type config = {
  warmup : int;  (** warmup batches per configuration before timing *)
  min_rounds : int;
  max_rounds : int;  (** auto-repetition cap *)
  target_rhw : float;  (** stop when every CI half-width / median <= this *)
  target_s : float;  (** calibrated duration of one timed batch *)
  max_iters : int;  (** calibration cap (1 forces single-shot timing) *)
  gc_fence : bool;  (** Gc.full_major before each timed window *)
}

(** 5–15 rounds, 20ms batches, 5% target half-width. *)
val quick : config

(** 10–30 rounds, 100ms batches, 3% target half-width. *)
val full : config

(** One measured configuration. [prepare]/[finish] run outside the
    timed window each round (toggle a tracer, drain counters, ...). *)
type thunk = {
  prepare : unit -> unit;
  op : unit -> unit;
  finish : unit -> unit;
}

(** A bare operation: no per-round setup. *)
val stage : (unit -> unit) -> thunk

type measurement = {
  est : Robust.estimate;
  iters : int;  (** operations per timed batch *)
  samples : float array;  (** per-call seconds, one per round, round order *)
}

(** Run all configurations interleaved round-by-round with one shared
    calibration; [samples] arrays are index-aligned across the result
    so deltas can pair within rounds. *)
val interleaved : ?config:config -> thunk array -> measurement array

(** Time one operation under the full protocol. *)
val measure : ?config:config -> (unit -> unit) -> measurement

(** Robust estimate of the round-paired relative difference in percent:
    (b - a) / a * 100. *)
val paired_delta_pct : float array -> float array -> Robust.estimate

(** "+1.3% ±0.8%": a paired delta with its CI half-width. *)
val pp_delta : Robust.estimate -> string

(** A paired delta judged against a budget of [pct] percent on its CI,
    not its median: "within" when [ci95_hi <= pct], "over" when
    [ci95_lo > pct], "unproven" when the CI straddles the budget,
    followed by the CI: "unproven [-1.2%, +6.0%]". *)
val budget : pct:float -> Robust.estimate -> string
