(** Wall-clock clock reads, batch calibration and duration printing.
    The repeated-run measurement protocol itself lives in
    [Graft_stats.Harness]. *)

(** Monotonic timestamp in nanoseconds. *)
val now_ns : unit -> int64

(** Same clock as an unboxed [int] (63 bits hold ns epochs until
    ~2262); used by the tracer so a timestamp read allocates nothing. *)
val now_ns_int : unit -> int

(** [time_it f] runs [f ()] once and returns (elapsed seconds, result). *)
val time_it : (unit -> 'a) -> float * 'a

(** [calibrate_iters ~target_s f] picks an iteration count such that a
    batch of calls to [f] takes roughly [target_s] seconds (at least 1;
    capped at [max_iters], default 10_000_000). *)
val calibrate_iters : ?max_iters:int -> target_s:float -> (unit -> unit) -> int

(** Human-readable seconds: ns/us/ms/s with 3 significant digits and
    never an exponent (a scaled value of 100 or more prints as an
    integer: "4412s", "1000ms"). *)
val pp_seconds : float -> string
