(** Basic sample statistics over float arrays, the building blocks of
    [Graft_stats.Robust]. *)

(** Sample mean. Raises [Invalid_argument] on an empty array. *)
val mean : float array -> float

(** Sample standard deviation (n-1 denominator; 0 for singletons). *)
val stddev : float array -> float

(** [percentile p samples] for [p] in [0,100], by linear interpolation
    on the sorted samples. *)
val percentile : float -> float array -> float

val median : float array -> float
