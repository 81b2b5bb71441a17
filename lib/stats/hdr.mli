(** Zero-allocation log-bucketed histogram with exact mergeability.

    Values are non-negative integers (typically latencies in
    nanoseconds).  Buckets are log-linear: values below [2^sub_bits]
    are recorded exactly; above that, each power-of-two range is split
    into [2^sub_bits] equal sub-buckets, so the relative quantile
    error is bounded by [2^-sub_bits] (< 1 % at the default
    [sub_bits = 7]).  Recording touches one array cell and a few
    scalar fields — no allocation, no sorting, O(1).

    Merging adds bucket counts elementwise, which makes [merge_into]
    exactly associative and commutative: aggregating per-trial
    histograms yields bit-identical quantiles in any order.  It is
    the one quantile estimator: latency percentiles and the span-stage
    timings both use it. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] in [0, 14], default 7. *)

val add : t -> int -> unit
(** Record one observation.  Negative values are clamped to 0. *)

val count : t -> int
(** Number of observations recorded. *)

val sum : t -> int
(** Exact sum of recorded values (not bucket midpoints). *)

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val min_value : t -> int
(** Smallest recorded value, exact; 0 when empty. *)

val max_value : t -> int
(** Largest recorded value, exact; 0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for q in [0, 1]; 0 when empty.  Nearest-rank
    (rank [ceil (q * count)]): returns the highest value equivalent to
    the bucket holding that rank, clamped to [[min_value, max_value]],
    so the result never under-reports and exceeds the exact sorted
    nearest-rank value by less than one bucket width.
    @raise Invalid_argument if q is outside [0, 1]. *)

val sub_bits : t -> int

val lowest_equivalent : t -> int -> int
(** Smallest value sharing a bucket with the argument. *)

val highest_equivalent : t -> int -> int
(** Largest value sharing a bucket with the argument.  The bucket
    width at value [v] is [highest_equivalent t v - lowest_equivalent
    t v + 1]. *)

val merge_into : into:t -> t -> unit
(** Add every observation of the second histogram into [into].
    Exactly associative and commutative.
    @raise Invalid_argument if the two histograms have different
    [sub_bits]. *)

val iter_buckets : t -> (value:int -> count:int -> unit) -> unit
(** Visit non-empty buckets in increasing value order; [value] is the
    bucket's highest equivalent value. *)
