(** Robust statistics for timing data: outlier-rejected medians with
    MAD spread and deterministic percentile-bootstrap confidence
    intervals. Every number the report layer prints goes through
    {!estimate}. *)

type estimate = {
  n_total : int;  (** raw samples collected *)
  n : int;  (** samples kept after outlier rejection *)
  mean : float;  (** mean of kept samples *)
  stddev : float;  (** stddev (n-1 denominator) of kept samples *)
  median : float;  (** median of kept samples — the reported number *)
  mad : float;  (** median absolute deviation of kept samples *)
  cv : float;  (** coefficient of variation: stddev / |mean|; 0 if mean = 0 *)
  ci95_lo : float;  (** bootstrap 95% CI on the median, lower bound *)
  ci95_hi : float;  (** upper bound *)
}

val median : float array -> float

(** Median absolute deviation. Raises [Invalid_argument] when empty. *)
val mad : float array -> float

(** Coefficient of variation: stddev / |mean|. 0 for a constant series
    (stddev 0) and when the mean is 0. *)
val cv : float array -> float

(** Tukey-fence outlier rejection (1.5 × IQR beyond the quartiles),
    iterated to a fixed point, never shrinking below 4 samples. By
    construction [reject_outliers (reject_outliers s)] keeps exactly
    the samples of [reject_outliers s]. *)
val reject_outliers : float array -> float array

(** [bootstrap_ci stat samples] is the percentile-bootstrap confidence
    interval (default 95%, 200 resamples, fixed seed — deterministic
    for a given sample array) of [stat], widened to contain
    [stat samples]. *)
val bootstrap_ci :
  ?seed:int64 ->
  ?resamples:int ->
  ?confidence:float ->
  (float array -> float) ->
  float array ->
  float * float

(** The full pipeline: reject outliers, summarize, bootstrap the
    median's CI. Raises [Invalid_argument] on an empty array. *)
val estimate : ?seed:int64 -> ?resamples:int -> float array -> estimate

(** (hi - lo) / 2 / |median| — the harness's convergence criterion. *)
val rel_half_width : estimate -> float

(** "12.3us ±1.4%": median with the 95% CI half-width as a percentage. *)
val pp_percall : estimate -> string
