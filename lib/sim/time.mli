(** Simulation time.

    Time is a count of nanoseconds since the start of the simulation,
    stored as an immediate [int] (63-bit: ±146 years of simulated time).
    Using integer nanoseconds keeps event ordering exact and runs
    bit-for-bit reproducible across platforms, which the
    deterministic-replay tests rely on; the immediate representation
    keeps clock arithmetic and event-queue comparisons allocation-free.
    The [ns]/[to_ns] boundary stays [int64] so callers are unaffected. *)

type t = private int

val zero : t

val ns : int64 -> t
(** [ns n] is [n] nanoseconds.  Raises [Invalid_argument] if [n < 0]. *)

(** The float constructors below round to the nearest nanosecond and
    raise [Invalid_argument] on a negative or non-finite input. *)

val us : float -> t
(** [us x] is [x] microseconds. *)

val ms : float -> t
(** [ms x] is [x] milliseconds. *)

val sec : float -> t
(** [sec x] is [x] seconds. *)

val unsafe_of_ns : int -> t
(** [unsafe_of_ns n] reinterprets an int nanosecond count as a time with
    no range check.  For schedulers that store times unboxed and need to
    hand them back; everyone else should use {!ns}. *)

val to_ns : t -> int64
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b].  Raises [Invalid_argument] if [b] is after [a]. *)

val mul : t -> int -> t
val div : t -> int -> t

val scale : t -> float -> t
(** [scale t x] is [t] multiplied by the non-negative factor [x]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit, e.g. ["1.500ms"] or ["2.000s"]. *)

val to_string : t -> string
