(** Deterministic pseudo-random number generation.

    A self-contained splitmix64 generator: every random decision in a
    simulation flows from one seed, so a run is fully determined by it.
    {!stream} names independent streams by index, so subsystems
    (mobility, MAC backoff, traffic, ...) draw without perturbing each
    other's sequences, whatever order the streams are derived in. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val stream : t -> int -> t
(** [stream t k] is a new generator for [t]'s stream number [k >= 0]:
    a pure function of [t]'s current state and [k], which does not
    advance [t].  Distinct [k] give independent streams. *)

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
