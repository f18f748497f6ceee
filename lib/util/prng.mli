(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Prng.t] so that runs are exactly reproducible. *)

type t

(** [create ~seed] returns a generator whose stream is a pure function of
    [seed]. *)
val create : seed:int -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound).  Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float

(** Uniform pick from a non-empty array. *)
val choose : t -> 'a array -> 'a

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
