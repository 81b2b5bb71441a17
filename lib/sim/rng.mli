(** Deterministic pseudo-random number generation.

    A self-contained splitmix64 generator: every random decision in a
    simulation flows from one seeded generator, so a run is fully
    determined by its seed.  [split] derives an independent stream, which
    lets subsystems (mobility, MAC backoff, traffic, ...) consume
    randomness without perturbing each other's sequences. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val bits64 : t -> int64
(** Next 64 raw bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val uniform_time : t -> Time.t -> Time.t
(** [uniform_time t d] is a duration uniform in [\[0, d)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
