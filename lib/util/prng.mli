(** Deterministic splitmix64 PRNG.

    Workload generation must be reproducible across runs and
    technologies so that every technology sees the identical request
    stream; the stdlib [Random] state is global and version-dependent,
    so we carry our own.

    The state is kept unboxed, so [int], [bool] and [bytes] allocate
    nothing per draw ([bytes] allocates only its result, [next] only
    its boxed result). Every workload, fault plan and fuzz program is a
    function of this stream, so it is pinned bit for bit in
    [test_util]. *)

type t

val create : int64 -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] is uniform in [0, bound). Raises on [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** [bytes t n] is a fresh buffer of [n] pseudo-random bytes. *)
val bytes : t -> int -> bytes

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** Independent stream derived from the current state. *)
val split : t -> t
